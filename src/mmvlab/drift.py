"""Drift of a variation of a one-dimensional density law.

For a function xi with xi(0) = 0, the image process xi(increments) is
again of the modeled class, and its per-unit-activity drift is

    grad0 b_trunc + hess0 c / 2 + integral of (xi - grad0 h) dF,

where h is the unit truncation.  A variation carries that compensated
jump integrand as a `Pieces` polynomial between the kinks -1, 1 and
1/lam, which density laws integrate exactly (`_quad`).  Time points
whose jumps are finitely many atoms, or absent, in any dimension, are
sums instead: `localutil._Rows` adds their atoms directly.

The value lives in R union {-inf}.  A tail diverges exactly when a
nonzero coefficient meets an infinite partial moment, in the direction
of the coefficient's sign: a divergent negative part makes the drift
-inf by convention, a divergent positive part (or both) raises
NonIntegrable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._quad import Pieces
from .errors import NonIntegrable
from .model import LocalCharacteristics

#: drift values are floats extended with -inf (never +inf)
ExtendedReal = float


@dataclass(frozen=True)
class VariationFunction:
    """The `Pieces` integrand x -> xi(x) - grad0 h(x) of a variation xi,
    with xi's slope grad0 and curvature hess0 at the origin."""

    integrand: object
    grad0: float
    hess0: float


def kinked_variation(lam: float, below, above, at_bliss: float,
                     grad0: float, hess0: float) -> VariationFunction:
    """The one-dimensional variation x -> F(lam x), compensated by grad0 h.

    F is the polynomial with coefficient row `below` (in x) where
    lam x < 1, the row `above` where lam x > 1, and at_bliss at the
    bliss point x = 1/lam itself.  h takes its inner values at -1 and 1.
    """
    bliss = 1.0 / lam if lam != 0.0 else math.inf
    edges = sorted({-1.0, 1.0, bliss} - {math.inf})
    bounds = [edges[0] - 1.0, *edges, edges[-1] + 1.0]
    coef, at = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (lo + hi)
        c0, c1, c2 = below if lam * mid < 1.0 else above
        coef.append((c0, c1 - grad0 if abs(mid) < 1.0 else c1, c2))
    for e in edges:
        row = below if lam * e < 1.0 else above
        value = at_bliss if e == bliss else row[0] + row[1] * e + row[2] * e * e
        at.append(value - grad0 * e if abs(e) <= 1.0 else value)
    return VariationFunction(Pieces(edges, coef, at), grad0, hess0)


def drift_of_variation(xi: VariationFunction, chars: LocalCharacteristics) -> ExtendedReal:
    """Per-unit-activity drift of the variation xi of one-dimensional increments.

    Returns -inf when the negative part of the jump integral diverges;
    raises NonIntegrable when the positive part does.
    """
    head = xi.grad0 * float(chars.b_trunc[0]) + 0.5 * xi.hess0 * float(chars.cov[0, 0])
    jumps = chars.jumps
    if jumps is None:
        return head
    val = jumps.integrate(xi.integrand)
    if not val < math.inf:      # inf, or nan: both tails
        raise NonIntegrable("positive part of the variation diverges")
    return head + val
