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
import bisect
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mmvlab import (ExpTails1D, Gaussian1D, LocalCharacteristics, TabulatedDensity1D,
                    build_model, maximize_local_utility, solve_schedule)
from mmvlab._quad import Pieces
from mmvlab.drift import _kinked_pieces
from mmvlab.duality import _SIGN_ROWS, _mellin_specs
from mmvlab.localutil import _slope_spec, _utility_spec
from mmvlab.measures import (_MOVING_PLANS, TRUNCATION_PIECES, CappedMeasure,
                             ExpYieldMeasure)

mp.mp.dps = 40


def _utility_pieces(lam, kind):
    """The compensated integrand of the utility variation at lam."""
    return _kinked_pieces(lam, [_utility_spec(lam, kind)])[0]


def _slope_pieces(lam, kind):
    """The compensated integrand of the slope variation at lam."""
    return _kinked_pieces(lam, [_slope_spec(lam, kind)])[0]


def _mellin_pieces(lam, p, even):
    """The compensated integrand of the sign-moment variation of order p
    and parity even at lam."""
    return _kinked_pieces(lam, _mellin_specs(lam))[_SIGN_ROWS.index((p, even))]


def _density(law):
    """The law's density as an mpmath function, and the points to split at."""
    if isinstance(law, TabulatedDensity1D):
        x, d = ([mp.mpf(v) for v in a] for a in (law.grid, law.density))

        def linear(v):
            i = bisect.bisect_left(x, v)
            if v < x[0] or v > x[-1]:
                return mp.mpf(0)
            if x[i] == v:
                return d[i]
            return d[i - 1] + (d[i] - d[i - 1]) * (v - x[i - 1]) / (x[i] - x[i - 1])
        return linear, x
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
        return _utility_pieces(lam, kind)
    if which == "slope":
        return _slope_pieces(lam, kind)
    if which == "sign":
        return _mellin_pieces(lam, draw(st.sampled_from([0, 1, 2])), draw(st.booleans()))
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


def _check(law, pieces, bound=1e-12):
    got = law.integrate(pieces)
    diverges = _tail_divergence(law, pieces)
    if diverges is not None:
        assert got == diverges
        return
    g = _integrand(pieces)
    want = _reference(law, g, list(pieces.edges))
    scale = _reference(law, lambda v: abs(g(v)), _kinks(pieces))
    assert math.isfinite(got)
    assert abs(got - want) <= bound * scale + 1e-300, (got, float(want), float(scale))


@given(laws, integrands())
@settings(max_examples=30, deadline=None)
@example(ExpTails1D(0.5, 12.0, 1.0, 12.0), _utility_pieces(1e-7, "mmv"))
@example(ExpTails1D(0.0, 5.0, 1.0, 5.0), _slope_pieces(1e13, "mmv"))
@example(ExpYieldMeasure(Gaussian1D(0.0, 0.01, 1.0)), _slope_pieces(4.5, "mv"))
@example(ExpYieldMeasure(ExpTails1D(10.0, 1.0, 3.0, 1.5)), _utility_pieces(1.0, "mv"))
def test_closed_forms_match_mpmath(law, pieces):
    _check(law, pieces)


@given(st.one_of(exp_tails(), gaussians, exp_tails(yield_tails).map(ExpYieldMeasure),
                 gaussians.map(ExpYieldMeasure)),
       st.floats(-0.5, 2.0), integrands())
@settings(max_examples=20, deadline=None)
def test_capped_laws_match_mpmath(base, cap, pieces):
    _check(CappedMeasure(base, cap), pieces)


@st.composite
def tabulated_laws(draw):
    """A tabulated law of 2 to 25 nodes, 2e-6 to 6 wide about a centre
    near 0, some density values 0: cells next to 0, one straddling it (an
    even count of nodes about 0) and cells wider than 1, which take
    exponential moments in log terms."""
    centre = draw(st.sampled_from([0.0]) | st.floats(-0.5, 0.5))
    half, n = draw(_log_uniform(1e-6, 3.0)), draw(st.integers(2, 25))
    dens = draw(st.lists(st.sampled_from([0.0]) | st.floats(0.1, 2.0), min_size=n, max_size=n))
    return TabulatedDensity1D(centre + half * np.linspace(-1.0, 1.0, n), np.array(dens))


#: the error allowed on a tabulated law per image, relative to the integral
#: of |integrand| as above; the worst seen on 1 500 seeded cases was
#: 2.6e-16 plain, 3.9e-16 in log terms and 3.6e-16 capped
_TABULATED_BOUNDS = {"plain": 1e-14, "yield": 1e-14, "capped": 1e-14, "capped_yield": 1e-14}
_NEAR_ZERO = TabulatedDensity1D(np.array([-2e-6, -1e-6, 1e-6, 3e-6]), np.array([0.0, 1.0, 2.0, 0.5]))


@given(st.sampled_from(sorted(_TABULATED_BOUNDS)), tabulated_laws(), st.floats(-0.5, 2.0),
       integrands())
@settings(max_examples=30, deadline=None)
@example("yield", _NEAR_ZERO, 0.0, _slope_pieces(5e5, "mmv"))
@example("yield", _NEAR_ZERO, 0.0, _mellin_pieces(-1e6, 2, True))
@example("capped_yield", _NEAR_ZERO, 2e-6, _utility_pieces(1e6, "mv"))
@example("yield", TabulatedDensity1D(np.array([-3.0, 0.5, 3.0]), np.array([0.5, 2.0, 1.0])),
         0.0, _slope_pieces(0.05, "mmv"))
def test_tabulated_closed_forms_match_mpmath(image, base, cap, pieces):
    # the density linear between the nodes, integrated from its cell
    # moments, against mpmath on the same density; (e^x - 1)^k cancels in
    # cells near y = 0 and those that straddle it, where the series of
    # one sign keeps the bound
    law = ExpYieldMeasure(base) if image.endswith("yield") else base
    if image.startswith("capped"):
        law = CappedMeasure(law, cap)
    _check(law, pieces, _TABULATED_BOUNDS[image])


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
def random_pieces(draw, edges=None, coefs=_COEFS):
    """A `Pieces` of random rows, on the given edges or on 0-4 random ones."""
    if edges is None:
        edges = sorted(set(draw(st.lists(_EDGES, max_size=4))))
    rows = draw(st.lists(st.tuples(coefs, coefs, coefs),
                         min_size=len(edges) + 1, max_size=len(edges) + 1))
    at = draw(st.lists(coefs, min_size=len(edges), max_size=len(edges)))
    return Pieces(edges, rows, at)


_FAMILIES = {
    "gaussian": lambda p: Gaussian1D(p[0], p[1], p[2]),
    "exp_tails": lambda p: ExpTails1D(p[2], 1.0 / p[1], p[2], 2.5 + 20.0 * p[1]),
    "gaussian_yield": lambda p: ExpYieldMeasure(Gaussian1D(p[0], p[1], p[2])),
    "exp_tails_yield": lambda p: ExpYieldMeasure(ExpTails1D(p[2], 1.0 / p[1], p[2],
                                                            2.5 + 20.0 * p[1])),
    "capped_yield": lambda p: CappedMeasure(ExpYieldMeasure(Gaussian1D(p[0], p[1], p[2])),
                                            0.5 + p[0]),
    "capped_exp_tails": lambda p: CappedMeasure(ExpTails1D(p[2], 1.0 / p[1], p[2],
                                                           2.5 + 20.0 * p[1]), 0.5 + p[0]),
    # plans from a table of cell moments: whole cells and partial ones
    "tabulated": lambda p: _tabulated(p),
    "tabulated_yield": lambda p: ExpYieldMeasure(_tabulated(p)),
    "capped_tabulated": lambda p: CappedMeasure(_tabulated(p), 0.5 + p[0]),
}


def _tabulated(p):
    grid = p[0] + 3.0 * math.sqrt(p[1]) * np.linspace(-1.0, 1.0, 25)
    return TabulatedDensity1D(grid, p[2] * np.exp(-0.5 * (grid - p[0]) ** 2 / p[1]))


def _hex(law, f):
    return float(law.integrate(f)).hex()


@given(st.sampled_from(sorted(_FAMILIES)),
       st.tuples(st.floats(-0.5, 0.5), _log_uniform(1e-3, 1.0), st.floats(0.1, 3.0)),
       random_pieces(), st.data())
@settings(max_examples=40, deadline=None)
def test_warm_plans_give_the_bits_of_fresh_ones(family, params, pieces, data):
    # a law that has integrated 200 other integrands, among them some on
    # the same edges with other rows, gives the same bits as a new one,
    # for the integrand taken as its float tuples, built from arrays, or
    # integrated again
    fresh, warm = _FAMILIES[family](params), _FAMILIES[family](params)
    want = _hex(fresh, Pieces.of(pieces.edges, pieces.coef, pieces.at))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    for i in range(197):
        lam = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.0, 13.0))
        kind = ("mv", "mmv")[i % 2]
        f = (_utility_pieces(lam, kind), _slope_pieces(lam, kind),
             _mellin_pieces(lam, i % 3, bool(i % 2)))[i % 3]
        warm.integrate(f if i % 7 else TRUNCATION_PIECES)
    for _ in range(3):
        warm.integrate(data.draw(random_pieces(list(pieces.edges))))
    assert _hex(warm, Pieces(*map(np.array, (pieces.edges, pieces.coef, pieces.at)))) == want
    assert _hex(warm, pieces) == want
    assert _hex(warm, pieces) == want      # and again, from the memo


@given(st.sampled_from(sorted(_FAMILIES)),
       st.tuples(st.floats(-0.5, 0.5), _log_uniform(1e-3, 1.0), st.floats(0.1, 3.0)),
       st.integers(1, 8), st.data())
@settings(max_examples=40, deadline=None)
def test_warm_blocks_give_the_bits_of_fresh_single_integrals(family, params, k, data):
    # a block of k integrands on shared edges, integrated in one walk by a
    # law that has walked other blocks (the value and slope, and the six
    # sign moments, at other directions and at the block's own bliss
    # point), gives row by row the bits of k single integrals, each on a
    # new law
    edges = sorted(set(data.draw(st.lists(_EDGES, max_size=4))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    # rows of generic floats, about one in four of them zero
    block = [Pieces(edges, rng.normal(size=(len(edges) + 1, 3))
                    * 10.0 ** rng.uniform(-3.0, 3.0, size=(len(edges) + 1, 1))
                    * (rng.random((len(edges) + 1, 1)) > 0.25), rng.normal(size=len(edges)))
             for _ in range(k)]
    want = [_hex(_FAMILIES[family](params), f) for f in block]
    warm = _FAMILIES[family](params)
    # the block's own edges as bliss points, up to the directions' 1e13
    bliss = [e for e in edges if e not in (-1.0, 1.0) and abs(e) >= 1e-13]
    lams = [float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.0, 13.0)) for _ in range(40)]
    for i, lam in enumerate(lams + [1.0 / e for e in bliss]):
        kind = ("mv", "mmv")[i % 2]
        warm.integrate_block(_kinked_pieces(lam, [_utility_spec(lam, kind),
                                                  _slope_spec(lam, kind)]))
        warm.integrate_block(_kinked_pieces(lam, _mellin_specs(lam)))
    for _ in range(2):
        assert [float(v).hex() for v in warm.integrate_block(block)] == want
    # and each row alone, on the warm law
    assert [_hex(warm, f) for f in block] == want


#: coefficients far from the subnormal range, where 2^-20 times one is exact
_NORMAL_COEFS = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(1e-6, 1e3) | st.floats(-1e3, -1e-6)


def _scaled(f, j):
    """f times 2^j, as a `Pieces`."""
    return Pieces.of(f.edges, tuple(tuple(math.ldexp(c, j) for c in row) for row in f.coef),
                     tuple(math.ldexp(v, j) for v in f.at))


@given(st.sampled_from(sorted(_FAMILIES)),
       st.tuples(st.floats(-0.5, 0.5), _log_uniform(1e-3, 1.0), st.floats(0.1, 3.0)),
       st.integers(1, 4), st.integers(-20, 20), st.data())
@settings(max_examples=60, deadline=None)
def test_power_of_two_rows_scale_their_integrals_exactly(family, params, k, j, data):
    # a row enters an integral only through products and sums with it, so
    # 2^j times the integrands gives 2^j times their integrals to the bit,
    # alone and in a block; a step that is not homogeneous in the row (a
    # cut-off on its size, a term added to it) breaks this.  Integrals
    # near the subnormal range, where scaling rounds, are left out.
    block = [data.draw(random_pieces(coefs=_NORMAL_COEFS))]
    block += [data.draw(random_pieces(list(block[0].edges), _NORMAL_COEFS))
              for _ in range(k - 1)]
    law = _FAMILIES[family](params)
    want = law.integrate_block(block)
    assume(all(v == 0.0 or not abs(v) < 2.0 ** -900 for v in want))
    want = [math.ldexp(v, j).hex() for v in want]
    scaled = [_scaled(f, j) for f in block]
    assert [v.hex() for v in law.integrate_block(scaled)] == want
    assert [_hex(_FAMILIES[family](params), f) for f in scaled] == want


#: rows whose coefficients about the power-law anchor -1 lead with c2 (the
#: third and fourth have c1 = 2 c2, so no first-order term there), with c1
#: where c2 = 0, and a constant; each with its negative
_DIVERGENT_ROWS = [(1.0, -2.0, 3.0), (-1.0, 2.0, -3.0), (0.0, 2.0, 1.0), (0.0, -2.0, -1.0),
                   (0.5, 1.5, 0.0), (-0.5, -1.5, 0.0), (2.0, 0.0, 0.0), (-2.0, 0.0, 0.0)]


def _kind(v):
    return "+" if v == math.inf else "-" if v == -math.inf else "f" if math.isfinite(v) else "n"


@pytest.mark.parametrize("b, kinds", [(0.5, "+-+-+-ff"), (1.0, "+-+-+-ff"), (1.5, "+-+-ffff"),
                                      (2.0, "+-+-ffff"), (3.0, "ffffffff")])
def test_divergent_rows_keep_their_kind_alone_and_in_blocks(b, kinds):
    # y^k on the right tail of the image of e^{-b x} diverges for k >= b:
    # the highest nonzero coefficient that meets an infinite moment gives
    # the infinity of its sign (a +inf drift is None), whatever the lower
    # ones hold; a finite row in the same block keeps its bits
    edges = (-0.5, 0.5, 3.0)

    def law():
        return ExpYieldMeasure(ExpTails1D(1.0, 4.0, 2.0, b))

    finite = Pieces(edges, ((0.0, 1.0, 0.0),) * 3 + ((1.0, 0.0, 0.0),), edges)
    alone = law().integrate(finite)
    assert math.isfinite(alone)
    for (c0, c1, c2), kind in zip(_DIVERGENT_ROWS, kinds):
        f = Pieces(edges, ((c0, c1, c2),) * 4, [c0 + c1 * e + c2 * e * e for e in edges])
        assert _kind(law().integrate(f)) == kind
        got = law().integrate_block([finite, f, finite])
        assert _kind(got[1]) == kind
        assert got[0].hex() == got[2].hex() == alone.hex()


def test_plan_memo_stays_bounded():
    # 10 000 slope integrals at distinct directions keep every fixed piece
    # and only the last few pieces that end at a bliss point
    for law in (ExpTails1D(1.0, 8.0, 2.0, 6.0), ExpYieldMeasure(Gaussian1D(0.05, 0.02, 1.5))):
        inner = law.base if isinstance(law, ExpYieldMeasure) else law
        for lam in np.geomspace(1e-3, 1e9, 10_000):
            law.integrate(_slope_pieces(float(lam), "mmv"))
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
