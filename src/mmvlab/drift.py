"""Drift of a variation of the driving process.

For a function xi with xi(0) = 0, the image process xi(increments) is
again of the modeled class, and its per-unit-activity drift is

    grad0 . b_trunc + tr(hess0 . cov)/2 + integral of (xi - grad0 . h) dF,

where h is the componentwise unit truncation.  A variation carries that
compensated jump integrand: in one dimension a `Pieces` polynomial
between the kinks -1, 1 and 1/lam, which atom laws evaluate and density
laws integrate exactly (`_quad`); in several, where only atom laws
exist, a vectorized callable.

The value lives in R union {-inf}.  A tail diverges exactly when a
nonzero coefficient meets an infinite partial moment, in the direction
of the coefficient's sign: a divergent negative part makes the drift
-inf by convention, a divergent positive part (or both) raises
NonIntegrable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import Pieces
from .errors import NonIntegrable, UnsupportedMeasure
from .measures import FiniteAtoms
from .model import LocalCharacteristics

#: drift values are floats extended with -inf (never +inf)
ExtendedReal = float


@dataclass(frozen=True)
class VariationFunction:
    """Compensated jump integrand of a variation with its local expansion.

    integrand is x -> xi(x) - grad0 . h(x): a `Pieces` in one dimension,
    a vectorized callable on (n, d) points otherwise.  grad0 and hess0
    are xi's gradient and (symmetric) Hessian at the origin.
    """

    integrand: object
    grad0: np.ndarray
    hess0: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.grad0, dtype=float))
        H = np.atleast_2d(np.asarray(self.hess0, dtype=float))
        if H.shape != (g.size, g.size):
            raise ValueError("hessian shape does not match gradient")
        object.__setattr__(self, "grad0", g)
        object.__setattr__(self, "hess0", 0.5 * (H + H.T))

    @property
    def dim(self) -> int:
        return self.grad0.size


def kinked_variation(lam: float, below, above, at_bliss: float,
                     grad0, hess0) -> VariationFunction:
    """The one-dimensional variation x -> F(lam x), compensated by grad0 h.

    F is the polynomial with coefficient row `below` (in x) where
    lam x < 1, the row `above` where lam x > 1, and at_bliss at the
    bliss point x = 1/lam itself.  h takes its inner values at -1 and 1.
    """
    g0 = float(np.atleast_1d(grad0)[0])
    bliss = 1.0 / lam if lam != 0.0 else math.inf
    edges = sorted({-1.0, 1.0, bliss} - {math.inf})
    bounds = [edges[0] - 1.0, *edges, edges[-1] + 1.0]
    coef, at = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (lo + hi)
        c0, c1, c2 = below if lam * mid < 1.0 else above
        coef.append((c0, c1 - g0 if abs(mid) < 1.0 else c1, c2))
    for e in edges:
        row = below if lam * e < 1.0 else above
        value = at_bliss if e == bliss else row[0] + row[1] * e + row[2] * e * e
        at.append(value - g0 * e if abs(e) <= 1.0 else value)
    return VariationFunction(Pieces(edges, coef, at), grad0, hess0)


def drift_of_variation(xi: VariationFunction, chars: LocalCharacteristics) -> ExtendedReal:
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
    val = jumps.integrate(xi.integrand)
    if not (isinstance(jumps, FiniteAtoms) or val < math.inf):   # inf, or nan: both tails
        raise NonIntegrable("positive part of the variation diverges")
    return head + val
