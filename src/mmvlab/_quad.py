"""Adaptive one-dimensional quadrature helpers.

Three rules cover every density family in the package:

* Gauss-Hermite for full-line integrals against a Gaussian weight,
* Gauss-Legendre for finite panels with the density folded into the
  integrand,
* Gauss-Laguerre for exponential tails, anchored at the innermost point
  of the tail so the weight is exactly e^{-t}.

Each rule doubles its order until two successive estimates agree to the
configured tolerance.  Integrands with kinks must be split by the caller
before any of these run; the rules themselves assume smoothness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

SQRT_PI = math.sqrt(math.pi)
SQRT_2 = math.sqrt(2.0)

_START_ORDER, _MAX_ORDER = 16, 4096
#: Gaussian mass beyond this many standard deviations counts as zero when
#: a kink forces panel splitting (12 sigma leaves less than 1e-31 outside)
GAUSS_SPAN = 12.0


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances of the adaptive rules: convergence is declared when
    |I_2n - I_n| <= atol + rtol * |I_2n|."""

    atol: float = 1e-12
    rtol: float = 1e-10


DEFAULT_QUAD = QuadConfig()


@lru_cache(maxsize=64)
def _leg_nodes(order: int):
    return np.polynomial.legendre.leggauss(order)


@lru_cache(maxsize=64)
def _lag_nodes(order: int):
    return np.polynomial.laguerre.laggauss(order)


@lru_cache(maxsize=32)
def _herm_nodes(order: int):
    return np.polynomial.hermite.hermgauss(order)


def _adapt(evaluate, cfg: QuadConfig, max_order: int) -> float:
    order = _START_ORDER
    prev = evaluate(order)
    if not math.isfinite(prev):
        return prev
    while order < max_order:
        order *= 2
        cur = evaluate(order)
        if not math.isfinite(cur):
            return cur
        if abs(cur - prev) <= cfg.atol + cfg.rtol * abs(cur):
            return cur
        prev = cur
    raise QuadratureError(f"no convergence by order {max_order}")


def legendre_panel(f, a: float, b: float, cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Integral of f over the finite panel [a, b]."""
    if not (b > a):
        return 0.0
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)

    def evaluate(order: int) -> float:
        t, w = _leg_nodes(order)
        return half * float(np.dot(w, f(mid + half * t)))

    return _adapt(evaluate, cfg, _MAX_ORDER)


def laguerre_tail(f, anchor: float, rate: float, direction: int,
                  cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Integral of f(x) * e^{-rate * |x - anchor|} over the tail.

    direction=+1 integrates over [anchor, inf), direction=-1 over
    (-inf, anchor].  The exponential weight is the rule's own; callers
    pass f without it (density prefactors included in f are fine as long
    as they are subexponential on the tail).
    """
    if rate <= 0.0:
        raise QuadratureError("nonpositive tail rate")

    def evaluate(order: int) -> float:
        t, w = _lag_nodes(order)
        x = anchor + direction * t / rate
        return float(np.dot(w, f(x))) / rate

    # Laguerre orders beyond ~512 gain nothing in float64.
    return _adapt(evaluate, cfg, 512)


def hermite_gaussian(f, mean: float, sd: float,
                     cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Integral of f against the N(mean, sd^2) density over the full line."""
    if sd <= 0.0:
        raise QuadratureError("nonpositive standard deviation")

    def evaluate(order: int) -> float:
        t, w = _herm_nodes(order)
        return float(np.dot(w, f(mean + SQRT_2 * sd * t))) / SQRT_PI

    # hermgauss weights underflow past order ~512; the panel-split path
    # covers anything that refuses to converge by then.
    return _adapt(evaluate, cfg, 512)


def split_points(lo: float, hi: float, breakpoints) -> list[float]:
    """Sorted panel edges: lo, the interior breakpoints, hi."""
    edges = [lo]
    for p in sorted(set(float(b) for b in breakpoints)):
        if lo < p < hi:
            edges.append(p)
    edges.append(hi)
    return edges
