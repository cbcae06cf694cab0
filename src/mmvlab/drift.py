"""Drift of a variation of a one-dimensional density law.

For a function xi with xi(0) = 0, the image process xi(increments) is
again of the modeled class, and its per-unit-activity drift is

    grad0 b_trunc + hess0 c / 2 + integral of (xi - grad0 h) dF,

where h is the unit truncation.  A variation x -> F(lam x) is its spec
(below, above, at_bliss, grad0, hess0): the coefficient rows of F
below and above the bliss point 1/lam, its value there, and xi's slope
and curvature at the origin.  The compensated jump integrand is a
`Pieces` polynomial between the kinks -1, 1 and 1/lam, which density
laws integrate exactly (`_quad`); its table is tuples of floats,
written by case from where 1/lam falls against -1 and 1
(`_kinked_pieces`).  Every variation at one lam has the same edges, so
the ones a caller needs there (the value and the slope at a solved
lam, the six sign moments) are one block, with the case taken once,
integrated in one walk of the law (`drifts`); a single drift is the
block of one.  Time points whose jumps are finitely many atoms, or
absent, in any dimension, are sums instead: `localutil._Rows` adds
their atoms directly.

The value lives in R union {-inf}.  A tail diverges exactly when a
nonzero coefficient meets an infinite partial moment, in the direction
of the coefficient's sign: a divergent negative part makes the drift
-inf by convention, a divergent positive part (or both) raises
NonIntegrable, in a block when that row is read (`_checked`).
"""
from __future__ import annotations

import math
from operator import itemgetter

from ._quad import Pieces
from .errors import NonIntegrable
from .model import LocalCharacteristics

#: drift values are floats extended with -inf (never +inf)
ExtendedReal = float


#: the pieces' rows by case, from (below, below less grad0, above less
#: grad0, above): the inner two lie in [-1, 1], where h is compensated
_TAKE = {take: itemgetter(*take) for take in ((0, 1, 0), (0, 1, 0, 3), (0, 1, 3), (0, 1, 2, 3),
                                              (3, 0, 1, 0), (3, 1, 0), (3, 2, 1, 0))}


def _kinked_pieces(lam: float, specs) -> list[Pieces]:
    """The compensated integrands x -> F(lam x) - grad0 h(x) of the
    specs' variations, on one table of edges: a block a law integrates
    in one walk.

    Each spec is (below, above, at_bliss, grad0, hess0): F is the
    polynomial with coefficient row `below` (in x) where lam x < 1, the
    row `above` where lam x > 1, and at_bliss at the bliss point
    x = 1/lam itself.  h takes its inner values at -1 and 1.  The table
    is written by case from where 1/lam falls against -1 and 1: each
    piece takes the row of its side of 1/lam, so the outer piece past a
    far bliss point takes `above` however close to 1 lam x rounds there.
    lam = 0, or a positive lam whose 1/lam overflows, puts no kink at
    bliss.  The case is taken once for all the specs.
    """
    bliss = 1.0 / lam if lam != 0.0 else math.inf
    if bliss == math.inf:
        edges, take = (-1.0, 1.0), _TAKE[0, 1, 0]
    elif bliss > 1.0:
        edges, take = (-1.0, 1.0, bliss), _TAKE[0, 1, 0, 3]
    elif bliss == 1.0:
        edges, take = (-1.0, 1.0), _TAKE[0, 1, 3]
    elif lam > 0.0:
        edges, take = (-1.0, bliss, 1.0), _TAKE[0, 1, 2, 3]
    elif bliss < -1.0:
        edges, take = (bliss, -1.0, 1.0), _TAKE[3, 0, 1, 0]
    elif bliss == -1.0:
        edges, take = (-1.0, 1.0), _TAKE[3, 1, 0]
    else:
        edges, take = (-1.0, bliss, 1.0), _TAKE[3, 2, 1, 0]
    # per edge: where it falls (at bliss, on the side below it, inside [-1, 1])
    ends = [(e, e == bliss, lam * e < 1.0, abs(e) <= 1.0) for e in edges]
    out = []
    for below, above, at_bliss, grad0, _ in specs:
        at = []
        for e, is_bliss, is_below, inner in ends:       # F at e, less grad0 h(e)
            if is_bliss:
                v = at_bliss
            else:
                c0, c1, c2 = below if is_below else above
                v = c0 + c1 * e + c2 * e * e
            at.append(v - grad0 * e if inner else v)
        rows = (below, (below[0], below[1] - grad0, below[2]),
                (above[0], above[1] - grad0, above[2]), above)
        out.append(Pieces.of(edges, take(rows), tuple(at)))
    return out


def drifts(lam: float, specs, chars: LocalCharacteristics) -> list:
    """Per-unit-activity drifts of the variations x -> F(lam x) of the
    specs (`_kinked_pieces`), with one walk of the jump law for all of
    them.

    Each drift has the bits it has in a block of its own.  A drift whose
    negative part diverges is -inf; one whose positive part diverges is
    None, which `_checked` turns into NonIntegrable when it is read, so
    a divergent row costs the others nothing.
    """
    b, c = float(chars.b_trunc[0]), float(chars.cov[0, 0])
    heads = [grad0 * b + 0.5 * hess0 * c for _, _, _, grad0, hess0 in specs]
    jumps = chars.jumps
    if jumps is None:
        return heads
    vals = jumps.integrate_block(_kinked_pieces(lam, specs))
    # inf, or nan (both tails): the positive part diverges
    return [head + val if val < math.inf else None for head, val in zip(heads, vals)]


def _checked(drift) -> ExtendedReal:
    """A drift of `drifts`; NonIntegrable where it is None."""
    if drift is None:
        raise NonIntegrable("positive part of the variation diverges")
    return drift
