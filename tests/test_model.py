"""Config parsing, truncation conventions, transforms."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmvlab._quad import Pieces, evaluate
from mmvlab import (FiniteAtoms, Gaussian1D, InvariantError,
                    LocalCharacteristics, ScheduledJumps, SchemaError,
                    UnsupportedMeasure, build_model, cap_jumps,
                    exp_transform, merge_atoms)
from mmvlab.measures import TRUNCATION_PIECES
from mmvlab.model import JumpAtom, small_jump_mean


def one_segment(dim=1, **seg):
    base = {"t_start": 0.0, "t_end": 1.0, "b_kind": "trunc",
            "b": [0.0] * dim if dim > 1 else 0.0,
            "c": [[0.0] * dim for _ in range(dim)] if dim > 1 else 0.0}
    base.update(seg)
    return {"horizon": 1.0, "dimension": dim, "segments": [base]}


ATOM_JUMPS = {"family": "finite_atoms",
              "points": [[0.5], [-2.0]], "masses": [0.3, 0.2]}


def test_minimal_config_builds():
    m = build_model(one_segment())
    assert m.dim == 1 and m.horizon == 1.0
    assert len(m.segments) == 1
    assert isinstance(m.atoms, ScheduledJumps) and len(m.atoms) == 0 and m.atoms.dim == 1
    assert m.segments[0].chars.jumps is None
    assert m.segments[0].length == 1.0


def test_zero_truncation_drift_is_shifted_by_small_jump_mean():
    # only the |x| <= 1 point contributes to the shift: 0.1 + 0.3 * 0.5
    m = build_model(one_segment(b_kind="zero", b=0.1, jumps=ATOM_JUMPS))
    assert m.segments[0].chars.b_trunc[0] == pytest.approx(0.25, abs=1e-15)
    m2 = build_model(one_segment(b_kind="trunc", b=0.25, jumps=ATOM_JUMPS))
    assert m2.segments[0].chars.b_trunc[0] == m.segments[0].chars.b_trunc[0]


def test_small_jump_mean_matches_hand_sum():
    chars = build_model(one_segment(jumps=ATOM_JUMPS)).segments[0].chars
    assert small_jump_mean(chars)[0] == pytest.approx(0.3 * 0.5, abs=1e-15)


def test_exp_transform_pure_diffusion_gets_ito_shift():
    cfg = one_segment(b=0.2, c=0.04)
    cfg["yield_transform"] = "exp"
    m = build_model(cfg)
    chars = m.segments[0].chars
    assert chars.b_trunc[0] == pytest.approx(0.2 + 0.02, abs=1e-15)
    assert chars.cov[0, 0] == 0.04
    assert chars.jumps is None


def test_exp_transform_preserves_mass_and_maps_moments():
    cfg = one_segment(b=0.0, c=0.0,
                      jumps={"family": "gaussian", "mean": 0.1,
                             "variance": 0.04, "rate": 0.7})
    cfg["yield_transform"] = "exp"
    m = build_model(cfg)
    img = m.segments[0].chars.jumps
    assert img.total_mass() == pytest.approx(0.7, abs=1e-12)
    # E[e^X - 1] under rate * N(mean, var)
    want = 0.7 * (math.exp(0.1 + 0.02) - 1.0)
    got = img.integrate(Pieces((), [[0.0, 1.0, 0.0]], ()))
    assert got == pytest.approx(want, abs=1e-9)


def test_exp_transform_atoms_map_exactly():
    cfg = one_segment()
    cfg["yield_transform"] = "exp"
    cfg["atoms"] = [{"time": 0.5, "points": [[math.log(2.0)], [-1.0]],
                     "masses": [0.1, 0.2]}]
    m = build_model(cfg)
    pts = m.atoms[0].law.points[:, 0]
    assert pts[0] == pytest.approx(1.0, abs=1e-15)
    assert pts[1] == pytest.approx(math.expm1(-1.0), abs=1e-15)


def test_cap_jumps_moves_mass_and_redrifts():
    chars = LocalCharacteristics(
        np.array([0.0]), np.zeros((1, 1)),
        FiniteAtoms(np.array([[0.5], [2.0]]), np.array([0.1, 0.2])))
    capped = cap_jumps(chars, 0.8)
    assert sorted(capped.jumps.points[:, 0]) == [0.5, 0.8]
    assert capped.jumps.total_mass() == pytest.approx(0.3, abs=1e-15)
    # 2.0 was outside the truncation ball, its capped image 0.8 is inside
    assert capped.b_trunc[0] == pytest.approx(0.2 * 0.8, abs=1e-14)


def test_retruncated_atom_drifts_keep_the_bits_of_the_evaluated_truncation():
    # exp_transform and cap_jumps on atoms add the mean of h under the
    # image less that under the law, a dot product per coordinate as in
    # small_jump_mean: the bits of a dot product with the truncation
    # evaluated as a piecewise integrand, on points on and about the unit
    # boundary
    def h_mean(law):
        return float(np.dot(law.masses, evaluate((TRUNCATION_PIECES,), law.points[:, 0])[0]))

    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        x = np.where(rng.random(n) < 0.2, rng.choice([-1.0, 1.0, math.log(2.0)], n),
                     rng.uniform(-2.5, 2.5, n))
        chars = LocalCharacteristics(rng.uniform(-0.3, 0.3, 1), [[rng.uniform(0.0, 0.1)]],
                                     FiniteAtoms(x[:, None], rng.uniform(0.01, 0.5, n)))
        ito = chars.b_trunc + 0.5 * chars.cov[0]
        for got, base in ((exp_transform(chars), ito),
                          (cap_jumps(chars, rng.choice([-0.5, 0.8, 1.0, 1.5])), chars.b_trunc)):
            want = base + (h_mean(got.jumps) - h_mean(chars.jumps))
            assert got.b_trunc.tobytes() == want.tobytes()


def test_cap_jumps_without_jumps_is_identity():
    chars = LocalCharacteristics(np.array([0.3]), np.array([[0.1]]), None)
    assert cap_jumps(chars, 0.5) is chars


def test_cap_and_exp_reject_multidimensional_characteristics():
    chars = LocalCharacteristics(np.zeros(2), np.zeros((2, 2)), None)
    with pytest.raises(UnsupportedMeasure):
        cap_jumps(chars, 0.5)
    with pytest.raises(UnsupportedMeasure):
        exp_transform(chars)


@pytest.mark.parametrize("mutate, exc", [
    (lambda c: c.update(extra=1), SchemaError),
    (lambda c: c.pop("horizon"), SchemaError),
    (lambda c: c.update(horizon=-1.0), InvariantError),
    (lambda c: c.update(horizon="one"), SchemaError),
    (lambda c: c.update(dimension=0), InvariantError),
    (lambda c: c.update(dimension=5), InvariantError),
    (lambda c: c.update(dimension=True), SchemaError),
    (lambda c: c.update(dimension=2.0), SchemaError),
    (lambda c: c.update(yield_transform="log"), SchemaError),
    (lambda c: c.update(segments=[]), SchemaError),
    (lambda c: c.update(segments="nope"), SchemaError),
])
def test_top_level_validation(mutate, exc):
    cfg = one_segment()
    mutate(cfg)
    with pytest.raises(exc):
        build_model(cfg)


@pytest.mark.parametrize("seg, exc", [
    ({"t_start": 0.2}, InvariantError),              # gap before first segment
    ({"t_end": 0.0}, InvariantError),                # reversed
    ({"t_end": 0.7}, InvariantError),                # does not reach horizon
    ({"b_kind": "raw"}, SchemaError),
    ({"b": [0.0, 0.0]}, SchemaError),                # wrong length
    ({"c": [[0.0]]}, SchemaError),                   # scalar is fine, list must match
    ({"surprise": 1}, SchemaError),
    ({"jumps": {"points": [[0.1]]}}, SchemaError),   # family key missing
    ({"jumps": {"family": "levy"}}, SchemaError),
    ({"jumps": {"family": "finite_atoms", "points": [[0.1]],
                "masses": [0.1, 0.2]}}, SchemaError),
])
def test_segment_validation(seg, exc):
    cfg = one_segment(**seg)
    if "c" in seg and seg["c"] == [[0.0]]:
        cfg["dimension"] = 2
        cfg["segments"][0]["b"] = [0.0, 0.0]
    with pytest.raises(exc):
        build_model(cfg)


def test_segment_tiling_gap_between_segments():
    cfg = one_segment(t_end=0.4)
    cfg["segments"].append({"t_start": 0.6, "t_end": 1.0, "b_kind": "trunc",
                            "b": 0.0, "c": 0.0})
    with pytest.raises(InvariantError):
        build_model(cfg)


@pytest.mark.parametrize("atom, exc", [
    ({"time": 0.0}, InvariantError),                 # outside (0, horizon]
    ({"time": 1.5}, InvariantError),
    ({"masses": [0.6, 0.7]}, SchemaError),           # length mismatch
    ({"points": [[0.0]], "masses": [0.5]}, InvariantError),   # zero outcome
    ({"points": [[0.2]], "masses": [1.2]}, InvariantError),   # mass above one
    ({"when": 1.0}, SchemaError),
])
def test_atom_validation(atom, exc):
    base = {"time": 0.5, "points": [[0.2]], "masses": [0.5]}
    base.update(atom)
    if "when" in atom:
        base.pop("time")
    cfg = one_segment()
    cfg["atoms"] = [base]
    with pytest.raises(exc):
        build_model(cfg)


def test_atom_times_must_increase():
    cfg = one_segment()
    cfg["atoms"] = [{"time": 0.5, "points": [[0.2]], "masses": [0.5]},
                    {"time": 0.5, "points": [[0.3]], "masses": [0.5]}]
    with pytest.raises(InvariantError):
        build_model(cfg)


def test_density_families_are_one_dimensional():
    cfg = one_segment(dim=2, jumps={"family": "gaussian", "mean": 0.0,
                                    "variance": 1.0, "rate": 1.0})
    with pytest.raises(InvariantError):
        build_model(cfg)
    cfg2 = one_segment(dim=2)
    cfg2["yield_transform"] = "exp"
    with pytest.raises(InvariantError):
        build_model(cfg2)


def test_characteristics_invariants():
    with pytest.raises(InvariantError):
        LocalCharacteristics(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]),
                             None)
    with pytest.raises(InvariantError):
        LocalCharacteristics(np.zeros(1), np.array([[-0.1]]), None)
    with pytest.raises(InvariantError):
        LocalCharacteristics(np.zeros(2), np.zeros((2, 2)),
                             FiniteAtoms(np.array([[0.1]]), np.array([0.1])))


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("b, c, error", [
    ([0.1], [[_NAN]], (InvariantError, "diffusion matrix must be finite")),
    ([0.1], [[_INF]], (InvariantError, "diffusion matrix must be finite")),
    ([0.1], [[-_INF]], (InvariantError, "diffusion matrix must be finite")),
    ([0.1], [[1e308]], (InvariantError, "diffusion matrix must be finite")),   # 2c overflows
    ([_NAN], [[0.04]], (InvariantError, "drift must be finite")),
    ([_INF], [[0.04]], (InvariantError, "drift must be finite")),
    ([-_INF], [[0.04]], (InvariantError, "drift must be finite")),
    ([0.1], [[-1e-11]], None),          # within 1e-10 (1 + |c|) of PSD
    ([0.1], [[-1e-9]], (InvariantError, "diffusion matrix must be positive semidefinite")),
    ([0.0, 0.1], [[1.0, 0.5], [0.4, 1.0]], (InvariantError, "diffusion matrix must be symmetric")),
    ([0.0, 0.1], [[1.0, 2.0], [2.0, 1.0]],
     (InvariantError, "diffusion matrix must be positive semidefinite")),
    ([0.0, 0.1], [[1.0, _NAN], [_NAN, 1.0]], (InvariantError, "diffusion matrix must be finite")),
    ([0.0, _INF], [[1.0, 0.0], [0.0, 1.0]], (InvariantError, "drift must be finite")),
])
def test_characteristics_error_cases(b, c, error):
    # each case names its exception and message; a non-finite drift or
    # diffusion never reaches the solver
    if error is None:
        chars = LocalCharacteristics(np.array(b), np.array(c), None)
        assert chars.cov.tolist() == c
        return
    with pytest.raises(error[0]) as info:
        LocalCharacteristics(np.array(b), np.array(c), None)
    assert str(info.value) == error[1]


def test_one_by_one_characteristics_keep_their_bits():
    # the scalar checks store what the matrix checks stored: (c + c') / 2
    for v in (0.04, -0.0, 5e-324, 1e-300, 3.0000000000000004, 8e307):
        chars = LocalCharacteristics(np.array([0.1]), np.array([[v]]), None)
        c = np.array([[v]])
        assert chars.cov.tobytes() == (0.5 * (c + c.T)).tobytes()
        assert chars.cov.shape == (1, 1) and chars.b_trunc.shape == (1,)


@pytest.mark.parametrize("x, density, message", [
    ([-0.5, True, 0.5], [0.1, 0.4, 0.1], "expected a number, got bool"),
    ([-0.5, 0.0, "0.5"], [0.1, 0.4, 0.1], "expected a number, got str"),
    ([-0.5, [0.0], 0.5], [0.1, 0.4, 0.1], "expected a number, got list"),
    ([-0.5, 10 ** 400, None], [0.1, 0.4, 0.1], "expected a finite number"),
    ([-0.5, None, 10 ** 400], [0.1, 0.4, 0.1], "expected a number, got NoneType"),
    ([-0.5, 0.0, 0.5], [0.1, _INF, None], "expected a finite number"),
    ([-0.5, 0.0, _NAN], [None, 0.4, 0.1], "expected a finite number"),
    ([-0.5, 0.0, 0.5], [0.1, 0.4, None], "expected a number, got NoneType"),
])
def test_tabulated_lists_name_their_first_bad_entry(x, density, message):
    # x is read before density, each entry in order, the first bad one named
    jumps = {"family": "tabulated", "x": x, "density": density, "quadrature": "trapezoid"}
    with pytest.raises(SchemaError) as info:
        build_model(one_segment(jumps=jumps))
    assert str(info.value) == f"config.segments[0].jumps: {message}"


def test_jump_atom_invariants():
    law = FiniteAtoms(np.array([[0.2]]), np.array([0.5]))
    with pytest.raises(InvariantError):
        JumpAtom(0.5, law, activity_weight=0.0)
    with pytest.raises(InvariantError):
        JumpAtom(0.5, FiniteAtoms(np.array([[0.2]]), np.array([1.5])))
    # unit activity weight keeps per-unit values equal to plain expectations
    atom = JumpAtom(0.5, law)
    assert atom.chars.b_trunc[0] == pytest.approx(0.1, abs=1e-15)
    assert atom.chars.cov[0, 0] == 0.0


@given(st.lists(st.tuples(st.sampled_from([-0.5, 0.25, 0.25, 1.0]),
                          st.floats(0.0, 0.5)), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_merge_atoms_conserves_mass_and_moments(rows):
    pts = np.array([[p] for p, _ in rows])
    ms = np.array([m for _, m in rows])
    merged = merge_atoms(pts, ms)
    assert merged.total_mass() == pytest.approx(float(ms.sum()), abs=1e-12)
    want = float((pts[:, 0] * ms).sum())
    got = float((merged.points[:, 0] * merged.masses).sum())
    assert got == pytest.approx(want, abs=1e-12)
    assert np.all(merged.masses > 0.0)
    assert len(np.unique(merged.points[:, 0])) == merged.masses.size


def test_gaussian_family_parses():
    cfg = one_segment(jumps={"family": "gaussian", "mean": 0.1,
                             "variance": 0.2, "rate": 0.5})
    m = build_model(cfg)
    assert isinstance(m.segments[0].chars.jumps, Gaussian1D)
    assert m.segments[0].chars.jumps.rate == 0.5
