"""Exact integration of piecewise quadratic integrands against densities.

Every closed form is checked against mpmath quadrature at 40 digits,
on the integrands the solver and the diagnostics build: the utility,
slope and sign-moment variations at directions lam from 1e-7 to 1e13
(so pieces range from 1e-13 wide next to 0 out to infinite tails) and
the truncation.  A divergent tail must come out as the infinity of the
right sign.  The error allowed is 1e-12 of the integral of |integrand|:
rounding the integrand pointwise costs about 1e-16 of it, and the rest
leaves room for the digits the moment combinations may cancel.
"""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mmvlab import (ExpTails1D, Gaussian1D, LocalCharacteristics, build_model,
                    maximize_local_utility, solve_schedule)
from mmvlab._quad import Pieces
from mmvlab.duality import _mellin_variation
from mmvlab.localutil import slope_variation, utility_variation
from mmvlab.measures import (_MOVING_PLANS, TRUNCATION_PIECES, CappedMeasure,
                             ExpYieldMeasure)

mp.mp.dps = 40


def _density(law):
    """The law's density as an mpmath function, and the points to split at."""
    if isinstance(law, Gaussian1D):
        mu, sd, r = mp.mpf(law.mean), mp.sqrt(mp.mpf(law.variance)), mp.mpf(law.rate)
        return (lambda x: r * mp.npdf(x, mu, sd)), [mu + k * sd for k in (-8, -2, 0, 2, 8)]
    cm, a, cp, b = map(mp.mpf, (law.c_minus, law.a, law.c_plus, law.b))
    return (lambda x: cm * mp.exp(a * x) if x < 0 else cp * mp.exp(-b * x)), [mp.mpf(0)]


def _reference(law, g, kinks):
    """Integral of g against the law, g an mpmath function of its variable."""
    if isinstance(law, ExpYieldMeasure):
        inner = [mp.log1p(k) for k in kinks if k > -1]
        return _reference(law.base, lambda x: g(mp.expm1(x)), inner)
    if isinstance(law, CappedMeasure):
        cap = mp.mpf(law.cap)
        return _reference(law.base, lambda v: g(min(v, cap)), [k for k in kinks if k < cap] + [cap])
    rho, own = _density(law)
    points = [-mp.inf, *sorted(set([mp.mpf(k) for k in kinks] + own)), mp.inf]
    value = mp.quad(lambda x: g(x) * rho(x), points)
    if 0 < abs(value) < 1e-20:      # quad's tolerance is absolute: rescale
        value = abs(value) * mp.quad(lambda x: g(x) * rho(x) / abs(value), points)
    return value


def _integrand(pieces):
    """The Pieces as an mpmath function (edge values do not matter here)."""
    edges = [mp.mpf(e) for e in pieces.edges]
    rows = [[mp.mpf(c) for c in row] for row in pieces.coef]

    def g(v):
        # y = -1 only arises as e^x - 1 rounded far in the left tail, just
        # above -1, so an edge at -1 counts as passed there
        row = rows[sum(1 for e in edges if e < v or e == v == -1)]
        return row[0] + row[1] * v + row[2] * v * v
    return g


def _kinks(pieces):
    """Edges and the real roots of each piece's polynomial, where |g| kinks."""
    out = list(pieces.edges)
    for c0, c1, c2 in pieces.coef:
        if c2:
            disc = c1 * c1 - 4.0 * c2 * c0
            if disc >= 0.0:
                out += [(-c1 + s * math.sqrt(disc)) / (2.0 * c2) for s in (-1.0, 1.0)]
        elif c1:
            out.append(-c0 / c1)
    return [k for k in out if math.isfinite(k)]


def _tail_divergence(law, pieces):
    """+-inf when the integral diverges, else None: y^k, k >= b, on the
    last piece of an exponential-yield image of exponential tails."""
    if not (isinstance(law, ExpYieldMeasure) and isinstance(law.base, ExpTails1D)
            and law.base.c_plus > 0.0):
        return None
    row = pieces.coef[-1]
    k = max((j for j in range(3) if row[j] != 0.0), default=None)
    if k is None or k < law.base.b:
        return None
    return math.copysign(math.inf, row[k])


@st.composite
def integrands(draw):
    """A variation's compensated integrand at a direction from 1e-7 to 1e13."""
    lam = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-7.0, 13.0))
    kind = draw(st.sampled_from(["mv", "mmv"]))
    which = draw(st.sampled_from(["utility", "slope", "sign", "truncation"]))
    if which == "utility":
        return utility_variation(lam, kind).integrand
    if which == "slope":
        return slope_variation(lam, kind).integrand
    if which == "sign":
        return _mellin_variation(lam, draw(st.sampled_from([0, 1, 2])),
                                 draw(st.booleans())).integrand
    return TRUNCATION_PIECES


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def exp_tails(draw, right_rates=None):
    cm, cp = (draw(st.sampled_from([0.0, 1.0])) * draw(st.floats(0.1, 3.0)) for _ in range(2))
    b = draw(right_rates if right_rates is not None else _log_uniform(0.5, 50.0))
    return ExpTails1D(cm, draw(_log_uniform(0.5, 50.0)), cp, b)


gaussians = st.builds(Gaussian1D, st.floats(-0.5, 0.5), _log_uniform(1e-4, 1.0),
                      st.floats(0.1, 3.0))
yield_tails = st.sampled_from([1.0, 1.5, 2.0]) | _log_uniform(2.5, 40.0)
laws = st.one_of(exp_tails(), gaussians,
                 exp_tails(yield_tails).map(ExpYieldMeasure), gaussians.map(ExpYieldMeasure))


def _check(law, pieces):
    got = law.integrate(pieces)
    diverges = _tail_divergence(law, pieces)
    if diverges is not None:
        assert got == diverges
        return
    g = _integrand(pieces)
    want = _reference(law, g, list(pieces.edges))
    scale = _reference(law, lambda v: abs(g(v)), _kinks(pieces))
    assert math.isfinite(got)
    assert abs(got - want) <= 1e-12 * scale + 1e-300, (got, float(want), float(scale))


@given(laws, integrands())
@settings(max_examples=30, deadline=None)
@example(ExpTails1D(0.5, 12.0, 1.0, 12.0), utility_variation(1e-7, "mmv").integrand)
@example(ExpTails1D(0.0, 5.0, 1.0, 5.0), slope_variation(1e13, "mmv").integrand)
@example(ExpYieldMeasure(Gaussian1D(0.0, 0.01, 1.0)), slope_variation(4.5, "mv").integrand)
@example(ExpYieldMeasure(ExpTails1D(10.0, 1.0, 3.0, 1.5)), utility_variation(1.0, "mv").integrand)
def test_closed_forms_match_mpmath(law, pieces):
    _check(law, pieces)


@given(st.one_of(exp_tails(), gaussians, exp_tails(yield_tails).map(ExpYieldMeasure),
                 gaussians.map(ExpYieldMeasure)),
       st.floats(-0.5, 2.0), integrands())
@settings(max_examples=20, deadline=None)
def test_capped_laws_match_mpmath(base, cap, pieces):
    _check(CappedMeasure(base, cap), pieces)


@given(st.floats(-0.3, 0.3), st.floats(0.001, 0.1),
       st.one_of(exp_tails(_log_uniform(8.0, 50.0)),
                 st.builds(Gaussian1D, st.floats(-0.05, 0.05), _log_uniform(1e-4, 2e-3),
                           st.floats(0.1, 3.0))))
@settings(max_examples=40, deadline=None)
@example(0.0, 0.09375, ExpTails1D(0.0, math.exp(3.0), 1.0, math.exp(3.875)))
def test_monotone_equals_plain_where_no_mass_passes_bliss(b, c, law):
    # the monotone utility differs from the plain one only past the
    # bliss point 1/lam; with no mass there to float precision the two
    # optima must coincide.  The pinned law at b = 0 puts the optimum
    # in the slope's rounding noise: lam = B/C = 2.6822300930203344e-22
    # for both kinds
    chars = LocalCharacteristics(np.array([b]), np.array([[c]]), law)
    mv = maximize_local_utility(chars, "mv")
    lam = float(mv.lambda_hat[0])
    assume(mv.boundedness == "interior" and lam != 0.0)
    assume(law.mass_scaled_ge(lam, 1.0) == 0.0)
    mmv = maximize_local_utility(chars, "mmv")
    assert mmv.boundedness == "interior"
    assert float(mmv.lambda_hat[0]) == pytest.approx(lam, rel=1e-12, abs=0.0)
    assert mmv.value == pytest.approx(mv.value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("s", [1.0, 1e-5, 1e-10, 1e-14, 1e-17, 1e-20])
def test_scaled_exponential_tails_keep_the_plain_optimum(s):
    # b = 0, c = 0.0625 s and tails 0.5 s e^{12x}, s e^{-12x}: no mass
    # lies past 1/lam, so mmv must equal mv; long panels once read 0
    # there and put the monotone optimum at the origin
    chars = LocalCharacteristics(np.zeros(1), np.array([[0.0625 * s]]),
                                 ExpTails1D(0.5 * s, 12.0, s, 12.0))
    mv = maximize_local_utility(chars, "mv")
    mmv = maximize_local_utility(chars, "mmv")
    assert mmv.boundedness == mv.boundedness == "interior"
    assert float(mmv.lambda_hat[0]) == pytest.approx(float(mv.lambda_hat[0]),
                                                     rel=1e-12, abs=0.0)
    assert float(mv.lambda_hat[0]) == pytest.approx(4.3176e-6, rel=1e-4)


# ---------------------------------------------------------------------------
# piece plans: a law keeps the row-free part of every piece it integrates


_EDGES = st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-3.0, 3.0) | \
    st.floats(1e-9, 1e9).map(lambda v: 1.0 / v)
_COEFS = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-1e3, 1e3)


@st.composite
def random_pieces(draw, edges=None):
    """A `Pieces` of random rows, on the given edges or on 0-4 random ones."""
    if edges is None:
        edges = sorted(set(draw(st.lists(_EDGES, max_size=4))))
    rows = draw(st.lists(st.tuples(_COEFS, _COEFS, _COEFS),
                         min_size=len(edges) + 1, max_size=len(edges) + 1))
    at = draw(st.lists(_COEFS, min_size=len(edges), max_size=len(edges)))
    return Pieces(edges, rows, at)


_FAMILIES = {
    "gaussian": lambda p: Gaussian1D(p[0], p[1], p[2]),
    "exp_tails": lambda p: ExpTails1D(p[2], 1.0 / p[1], p[2], 2.5 + 20.0 * p[1]),
    "gaussian_yield": lambda p: ExpYieldMeasure(Gaussian1D(p[0], p[1], p[2])),
    "exp_tails_yield": lambda p: ExpYieldMeasure(ExpTails1D(p[2], 1.0 / p[1], p[2],
                                                            2.5 + 20.0 * p[1])),
    "capped_yield": lambda p: CappedMeasure(ExpYieldMeasure(Gaussian1D(p[0], p[1], p[2])),
                                            0.5 + p[0]),
}


def _hex(law, f):
    return float(law.integrate(f)).hex()


@given(st.sampled_from(sorted(_FAMILIES)),
       st.tuples(st.floats(-0.5, 0.5), _log_uniform(1e-3, 1.0), st.floats(0.1, 3.0)),
       random_pieces(), st.data())
@settings(max_examples=40, deadline=None)
def test_warm_plans_give_the_bits_of_fresh_ones(family, params, pieces, data):
    # a law that has integrated 200 other integrands, among them some on
    # the same edges with other rows, gives the same bits as a new one
    fresh, warm = _FAMILIES[family](params), _FAMILIES[family](params)
    want = _hex(fresh, pieces)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    for i in range(197):
        lam = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.0, 13.0))
        kind = ("mv", "mmv")[i % 2]
        f = (utility_variation(lam, kind), slope_variation(lam, kind),
             _mellin_variation(lam, i % 3, bool(i % 2)))[i % 3].integrand
        warm.integrate(f if i % 7 else TRUNCATION_PIECES)
    for _ in range(3):
        warm.integrate(data.draw(random_pieces(pieces.edges.tolist())))
    assert _hex(warm, pieces) == want
    assert _hex(warm, pieces) == want      # and again, from the memo


def test_plan_memo_stays_bounded():
    # 10 000 slope integrals at distinct directions keep every fixed piece
    # and only the last few pieces that end at a bliss point
    for law in (ExpTails1D(1.0, 8.0, 2.0, 6.0), ExpYieldMeasure(Gaussian1D(0.05, 0.02, 1.5))):
        inner = law.base if isinstance(law, ExpYieldMeasure) else law
        for lam in np.geomspace(1e-3, 1e9, 10_000):
            law.integrate(slope_variation(float(lam), "mmv").integrand)
        fixed, moving = inner.__dict__["_plans"]
        assert len(moving) == _MOVING_PLANS
        assert len(fixed) <= 6
        assert all(lo in (-math.inf, -1.0, 0.0, 1.0) and hi in (-1.0, 0.0, 1.0, math.inf)
                   for lo, hi, _ in fixed)


def test_a_model_built_again_holds_no_plans():
    config = {"horizon": 1.0, "dimension": 1, "yield_transform": "exp", "segments": [
        {"t_start": 0.0, "t_end": 0.5, "b_kind": "trunc", "b": 0.1, "c": 0.04,
         "jumps": {"family": "gaussian", "mean": -0.05, "variance": 0.01, "rate": 1.0}},
        {"t_start": 0.5, "t_end": 1.0, "b_kind": "trunc", "b": 0.2, "c": 0.02,
         "jumps": {"family": "exp_tails", "c_minus": 1.0, "a": 8.0, "c_plus": 2.0,
                   "b": 10.0}}]}

    def plans(model):
        out = []
        for seg in model.segments:
            fixed, moving = seg.chars.jumps.base.__dict__.get("_plans", ({}, {}))
            out.append({*fixed, *moving})
        return out

    built = plans(build_model(config))      # the truncation integrals of the build
    first = build_model(config)
    for kind in ("mv", "mmv"):
        solve_schedule(first, kind)
    assert all(len(a) > len(b) for a, b in zip(plans(first), built))
    assert plans(build_model(config)) == built
