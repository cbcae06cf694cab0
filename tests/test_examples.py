"""Bundled example markets: configs, generated families, capped variants."""
import numpy as np
import pytest

from mmvlab import (SchemaError, build_model, capped_variant, example_config,
                    example_model)
from mmvlab.examples import DEFAULT_ATOMS_MAX, EXAMPLE_IDS


def test_id_catalog():
    assert EXAMPLE_IDS == (1, 2, 3, 4, 5, 6)
    assert DEFAULT_ATOMS_MAX == {5: 10_000, 6: 1_000}


@pytest.mark.parametrize("ex_id", [5, 6])
def test_series_snapshot_holds_99_bets(ex_id):
    cfg = example_config(ex_id)
    assert len(cfg["atoms"]) == 99
    snap = build_model(cfg)
    gen = example_model(ex_id, atoms_max=100)
    assert len(gen.atoms) == 99
    for a, b in zip(snap.atoms, gen.atoms):
        assert a.time == b.time
        assert np.array_equal(a.law.points, b.law.points)
        assert np.array_equal(a.law.masses, b.law.masses)


def test_series_family_first_bet_exact():
    m5 = example_model(5, atoms_max=2)
    atom = m5.atoms[0]
    assert atom.time == 1.5
    assert atom.activity_weight == 0.25
    assert np.array_equal(atom.law.points, [[-0.125], [0.25], [1.0]])
    assert np.array_equal(atom.law.masses, [0.25, 0.5, 0.25])

    m6 = example_model(6, atoms_max=2)
    atom = m6.atoms[0]
    assert atom.time == 1.5
    np.testing.assert_allclose(atom.law.points, [[-1 / 3], [2 / 3]],
                               rtol=0.0, atol=1e-16)
    np.testing.assert_allclose(atom.law.masses, [8 / 9, 1 / 9],
                               rtol=0.0, atol=1e-16)
    mean = float(atom.law.masses @ atom.law.points[:, 0])
    assert mean == pytest.approx(-2.0 / 9.0, abs=1e-15)


def test_default_cutoffs_build():
    assert len(example_model(5).atoms) == 9_999
    assert len(example_model(6).atoms) == 999
    assert example_model(5).horizon == 2.0


def test_cutoff_validation():
    with pytest.raises(SchemaError):
        example_model(5, atoms_max=1)
    with pytest.raises(SchemaError):
        example_model(2, atoms_max=50)
    with pytest.raises(SchemaError):
        example_model(7)
    with pytest.raises(SchemaError):
        example_model(0)
    with pytest.raises(SchemaError):
        example_config(7)


def test_capped_variant_moves_mass_onto_the_cap(ex2):
    capped = capped_variant(ex2, 0.1)
    base = ex2.segments[0].chars.jumps
    law = capped.segments[0].chars.jumps
    assert law.total_mass() == pytest.approx(base.total_mass(), abs=1e-12)
    assert law.mass_scaled_ge(1.0, 0.1, strict=True) == 0.0
    assert law.mass_scaled_ge(1.0, 0.1) \
        == pytest.approx(base.mass_scaled_ge(1.0, 0.1), abs=1e-12)


def test_capped_variant_caps_scheduled_jumps():
    m5 = example_model(5, atoms_max=3)
    capped = capped_variant(m5, 0.2)
    for atom in capped.atoms:
        assert float(np.max(atom.law.points)) <= 0.2


def test_capped_variant_is_one_dimensional_only(ex1):
    with pytest.raises(SchemaError):
        capped_variant(ex1, 0.5)
