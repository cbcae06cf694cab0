"""Drift of a variation: closed forms and divergence handling."""
import math

import numpy as np
import pytest

from mmvlab import (ExpTails1D, FiniteAtoms, Gaussian1D, LocalCharacteristics, NonIntegrable,
                    TabulatedDensity1D, local_utility)
from mmvlab._quad import Pieces
from mmvlab.drift import _checked, _kinked_pieces, drifts
from mmvlab.duality import _mellin_specs
from mmvlab.measures import CappedMeasure, ExpYieldMeasure
from mmvlab.localutil import _slope_spec, _utility_spec

import properties


def test_no_jumps_is_the_pure_head_formula():
    chars = LocalCharacteristics(np.array([0.1]), np.array([[0.3]]), None)
    # 2 * 0.1 - 0.5 * 4 * 0.3
    assert local_utility(2.0, chars, "mv") == pytest.approx(-0.4, abs=1e-15)


def test_atom_drift_closed_form():
    chars = LocalCharacteristics(
        np.array([0.1]), np.array([[0.04]]),
        FiniteAtoms(np.array([[0.5], [-2.0]]), np.array([0.3, 0.2])))
    # lam = 1: head 0.08, compensated jump term 0.3*(-0.125) + 0.2*(-4)
    for kind in ("mv", "mmv"):
        assert local_utility(1.0, chars, kind) \
            == pytest.approx(-0.7575, abs=1e-14)
    # lam = 4: the monotone utility freezes the 0.5 outcome at bliss
    assert local_utility(4.0, chars, "mv") == pytest.approx(-8.52, abs=1e-13)
    assert local_utility(4.0, chars, "mmv") == pytest.approx(-8.37, abs=1e-13)


def test_scheduled_jump_unit_directions(ex1):
    # both coordinate directions value the terminal jump law at 0.2
    atom = ex1.atoms[0]
    for lam in ([1.0, 0.0], [0.0, 1.0]):
        assert local_utility(lam, atom.chars, "mmv") \
            == pytest.approx(0.2, abs=1e-15)
        assert local_utility(lam, atom.chars, "mv") \
            == pytest.approx(0.198, abs=1e-15)


def test_drift_is_linear_in_the_variation():
    assert properties.check_drift_linearity(n_cases=200, seed=5) <= 1e-10


def test_drift_invariant_under_truncation_convention():
    assert properties.check_truncation_invariance(n_cases=50, seed=7) <= 1e-10


def test_density_drift_against_monte_carlo():
    law = Gaussian1D(mean=0.03, variance=0.04, rate=0.8)
    chars = LocalCharacteristics(np.array([0.05]), np.array([[0.02]]), law)
    lam = 0.7
    got = local_utility(lam, chars, "mv")

    gen = np.random.default_rng(42)
    x = law.sample(gen, 1_000_000)
    integrand = _kinked_pieces(lam, [_utility_spec(lam, "mv")])[0]
    h = np.where(np.abs(x) <= 1.0, x, 0.0)
    psi = lam * x - 0.5 * (lam * x) ** 2 - lam * h
    assert float(np.max(np.abs(properties.pieces_at(integrand, x) - psi))) <= 1e-15
    head = lam * 0.05 - 0.5 * lam * lam * 0.02
    est = head + 0.8 * float(np.mean(psi))
    se = 0.8 * float(np.std(psi)) / math.sqrt(x.size)
    assert got == pytest.approx(est, abs=3 * se)


def test_heavy_right_tail_sends_quadratic_utility_to_minus_infinity(ex3):
    assert local_utility(1.0, ex3.segments[0].chars, "mv") == -math.inf


def test_positive_divergence_raises(ex3):
    # x -> x^2 against a right tail with no second moment: a block keeps
    # the divergent row as None, and reading it raises
    chars = ex3.segments[0].chars
    square = ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), 1.0, 0.0, 2.0)
    flat, none = drifts(0.0, [_utility_spec(0.0, "mmv"), square], chars)
    assert none is None and _checked(flat) == 0.0
    with pytest.raises(NonIntegrable):
        _checked(drifts(0.0, [square], chars)[0])


# ---------------------------------------------------------------------------
# kinked tables: the table against the construction it replaced


def _midpoint_table(lam, below, above, at_bliss, grad0):
    """The edges, rows and edge values of a kinked variation as they were
    built before: sorted kinks, each piece's row chosen by the side of
    1/lam its midpoint falls on (the outer pieces' midpoints 1/2 past
    the outer kinks)."""
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
    return edges, coef, at


def _variation_args(lam):
    """(below, above, at_bliss, grad0, hess0) of every variation the package
    integrates at lam: the utility and slope specs of both kinds and the
    six sign-moment specs, written out here."""
    quad, linear = (0.0, lam, -0.5 * lam * lam), (0.0, 1.0, -lam)
    out = [(quad, quad, 0.5, lam, -(lam * lam)), (quad, (0.5, 0.0, 0.0), 0.5, lam, -(lam * lam)),
           (linear, linear, 0.0, 1.0, -2.0 * lam), (linear, (0.0, 0.0, 0.0), 0.0, 1.0, -2.0 * lam)]
    for p in (0, 1, 2):
        below = ((0.0, 0.0, 0.0), (0.0, -lam, 0.0), (0.0, -2.0 * lam, lam * lam))[p]
        for above in (((0.0, 0.0, 0.0), (-2.0, lam, 0.0), (0.0, -2.0 * lam, lam * lam))[p],
                      ((-2.0, 0.0, 0.0), (0.0, -lam, 0.0), (-2.0, 2.0 * lam, -lam * lam))[p]):
            out.append((below, above, -1.0, (0.0, -1.0, -2.0)[p] * lam,
                        (0.0, 0.0, 2.0)[p] * (lam * lam)))
    return out


def _hex(values):
    return [[float(v).hex() for v in row] if isinstance(row, (tuple, list)) else float(row).hex()
            for row in values]


def _drift_hex(drift):
    return "NonIntegrable" if drift is None else float(drift).hex()


def _oracle_drift(pieces, grad0, hess0, chars):
    """The drift of a variation given by its compensated integrand, with
    the head and the divergence rule written out."""
    val = chars.jumps.integrate(pieces)
    head = grad0 * float(chars.b_trunc[0]) + 0.5 * hess0 * float(chars.cov[0, 0])
    return head + val if val < math.inf else None


def _variation_laws():
    grid = np.linspace(-0.6, 0.9, 13)
    bases = [Gaussian1D(0.02, 0.04, 1.5), ExpTails1D(2.0, 6.0, 1.5, 3.5),
             TabulatedDensity1D(grid, np.exp(-8.0 * (grid - 0.1) ** 2))]
    return [law for base in bases
            for law in (base, ExpYieldMeasure(base), CappedMeasure(base, 0.45))]


def test_kinked_tables_and_drifts_match_the_midpoint_construction():
    # every kinked variation the package builds, at the kinks' special
    # directions and at seeded ones, on every one-dimensional density law
    # plain, in yields and capped: the same table and the same drift bits,
    # built alone and as one block integrated in one walk
    rng = np.random.default_rng(21)
    one = math.nextafter(1.0, 2.0) - 1.0
    lams = [0.0, -0.0, 1.0, -1.0, 1.0 + one, 1.0 - one / 2.0, -(1.0 + one), -(1.0 - one / 2.0),
            5e-324, -1e300, 1e300]
    lams += (rng.choice([-1.0, 1.0], 40) * 10.0 ** rng.uniform(-8.0, 8.0, 40)).tolist()
    laws = _variation_laws()
    with np.errstate(all="ignore"):     # lam = 1e300 overflows its rows
        _check_tables(lams, laws)


def _check_tables(lams, laws):
    for lam in lams:
        specs = _variation_args(lam)
        package = [_utility_spec(lam, "mv"), _utility_spec(lam, "mmv"), _slope_spec(lam, "mv"),
                   _slope_spec(lam, "mmv"), *_mellin_specs(lam)]
        assert repr(package) == repr(specs), lam
        block = _kinked_pieces(lam, specs)
        olds = []
        for spec, got in zip(specs, block):
            below, above, at_bliss, grad0, hess0 = spec
            edges, coef, at = _midpoint_table(lam, below, above, at_bliss, grad0)
            assert (_hex(got.edges), _hex(got.coef), _hex(got.at)) == \
                (_hex(edges), _hex(coef), _hex(at)), lam
            alone = _kinked_pieces(lam, [spec])[0]
            assert repr((alone.edges, alone.coef, alone.at)) == \
                repr((got.edges, got.coef, got.at)), lam
            olds.append(Pieces(np.array(edges), np.array(coef), np.array(at)))
        for law in laws:
            chars = LocalCharacteristics(np.array([0.05]), np.array([[0.02]]), law)
            want = [_drift_hex(_oracle_drift(old, spec[3], spec[4], chars))
                    for old, spec in zip(olds, specs)]
            singles = [_drift_hex(drifts(lam, [spec], chars)[0]) for spec in specs]
            assert singles == want, (lam, law)
            assert [_drift_hex(v) for v in drifts(lam, specs, chars)] == want, (lam, law)


def test_pieces_past_a_far_bliss_point_take_the_row_beyond_it():
    # below |lam| = 2^-52 the midpoint 1/2 past 1/lam can round onto it,
    # and the midpoint construction then gave the outer piece past bliss
    # the row from before it; the table gives it the row beyond, as
    # lam x > 1 there.  At lam = -5e-324, 1/lam = -inf, and the piece
    # (-inf, -1) has lam x < 1 throughout.
    zero = (0.0, 0.0, 0.0)
    for lam, piece in ((2.2188185693517155e-16, -1), (-2.2190492039655973e-16, 0),
                       (-1.012586266402598e-176, 0), (-5e-324, 1)):
        below = (0.0, 1.0, -lam)
        want = below if lam == -5e-324 else zero
        assert _kinked_pieces(lam, [(below, zero, 0.0, 1.0, -2.0 * lam)])[0].coef[piece] == want
        assert _midpoint_table(lam, below, zero, 0.0, 1.0)[1][piece] != want
    # so a heavy right tail in yields (no second moment) keeps a finite
    # monotone slope at a tiny direction, near the slope at 0; the
    # midpoint table made it -inf
    law = ExpYieldMeasure(ExpTails1D(1.0, 4.0, 0.5, 1.5))
    chars = LocalCharacteristics(np.array([0.05]), np.array([[0.0]]), law)
    tiny = 2.2188185693517155e-16
    got = _checked(drifts(tiny, [_slope_spec(tiny, "mmv")], chars)[0])
    assert got == pytest.approx(_checked(drifts(0.0, [_slope_spec(0.0, "mmv")], chars)[0]),
                                rel=1e-6)
