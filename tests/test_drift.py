"""Drift of a variation: closed forms and divergence handling."""
import math

import numpy as np
import pytest

from mmvlab import (FiniteAtoms, Gaussian1D, LocalCharacteristics,
                    NonIntegrable, VariationFunction, drift_of_variation,
                    local_utility)
from mmvlab._quad import Pieces
from mmvlab.localutil import utility_variation

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
    xi = utility_variation(lam, "mv")
    h = np.where(np.abs(x) <= 1.0, x, 0.0)
    psi = lam * x - 0.5 * (lam * x) ** 2 - lam * h
    assert float(np.max(np.abs(xi.integrand(x) - psi))) <= 1e-15
    head = lam * 0.05 - 0.5 * lam * lam * 0.02
    est = head + 0.8 * float(np.mean(psi))
    se = 0.8 * float(np.std(psi)) / math.sqrt(x.size)
    assert got == pytest.approx(est, abs=3 * se)


def test_heavy_right_tail_sends_quadratic_utility_to_minus_infinity(ex3):
    assert local_utility(1.0, ex3.segments[0].chars, "mv") == -math.inf


def test_positive_divergence_raises(ex3):
    chars = ex3.segments[0].chars
    square = Pieces((), [[0.0, 0.0, 1.0]], ())
    xi = VariationFunction(square, np.zeros(1), 2.0 * np.eye(1))
    with pytest.raises(NonIntegrable):
        drift_of_variation(xi, chars)


