"""Dual density diagnostics, sign moments, and kind-coincidence verdicts."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mmvlab import (FiniteAtoms, InfiniteValue, build_model, capped_variant, compare_mv_mmv,
                    cumulative_local_utility, density_diagnostics,
                    example_model, global_values, local_utility, mellin_sign_moments,
                    mv_signed_measure, sigma_martingale_residual,
                    solve_schedule, zero_density_probability)
from mmvlab.localutil import _slope_tol

EX2_LAM_MV = 4.484438439009606


class TestResiduals:
    def test_optimal_schedule_is_a_sigma_martingale(self, ex2, ex2_sol_mv):
        res = sigma_martingale_residual(ex2, ex2_sol_mv, "mv")
        assert len(res) == 1
        assert float(np.abs(res[0]).max()) <= 1e-8

    def test_residual_is_one_read_only_row_per_time_point(self, ex1):
        res = sigma_martingale_residual(ex1, solve_schedule(ex1, "mmv"), "mmv")
        assert res.shape == (2, 2) and res.dtype == float
        with pytest.raises(ValueError):
            res[0, 0] = 1.0
        d = density_diagnostics(ex1)
        assert d.sigma_mart_residual.shape == (2, 2)
        assert not d.sigma_mart_residual.flags.writeable

    def test_residual_accepts_raw_schedules(self, ex2):
        got = sigma_martingale_residual(ex2, [[EX2_LAM_MV]], "mv")
        assert float(np.abs(got[0]).max()) <= 1e-6

    def test_schedule_length_mismatch(self, ex2):
        with pytest.raises(ValueError):
            sigma_martingale_residual(ex2, [[1.0], [2.0]], "mv")


class TestZeroMass:
    def test_diffusive_crossing_probability(self, ex2, ex2_sol_mmv):
        p = zero_density_probability(ex2, ex2_sol_mmv)
        assert p == pytest.approx(0.0224430699, abs=1e-7)

    def test_heavy_tail_crossing_identity(self, ex3):
        sol = solve_schedule(ex3, "mmv")
        lam = float(sol.segment_optima[0].lambda_hat[0])
        theta = ex3.segments[0].chars.jumps.mass_scaled_ge(lam, 1.0)
        # the image law turns the bliss crossing into lam/(1+lam) exactly
        assert theta == pytest.approx(lam / (1.0 + lam), abs=1e-12)
        p = zero_density_probability(ex3, sol)
        assert p == pytest.approx(-math.expm1(-theta), abs=1e-12)
        assert p == pytest.approx(0.4088217409, abs=1e-7)

    def test_scheduled_jump_crossing_is_exact(self, ex1):
        sol = solve_schedule(ex1, "mmv")
        assert zero_density_probability(ex1, sol) \
            == pytest.approx(0.2, abs=1e-10)


class TestSignMoments:
    def test_pinned_values(self, ex2, ex2_sol_mv):
        sm0 = mellin_sign_moments(ex2, ex2_sol_mv, 0)
        assert sm0.phi_minus == pytest.approx(0.0215771468, abs=1e-6)
        sm1 = mellin_sign_moments(ex2, ex2_sol_mv, 1)
        assert sm1.phi_plus == pytest.approx(0.3662679769, abs=1e-6)
        assert sm1.phi_minus == pytest.approx(0.0017045740, abs=1e-6)
        sm2 = mellin_sign_moments(ex2, ex2_sol_mv, 2)
        assert sm2.phi_plus == pytest.approx(0.3638944177, abs=1e-6)
        assert sm2.phi_minus == pytest.approx(0.0006689852, abs=1e-6)

    def test_moment_identities_at_the_optimum(self, ex2, ex2_sol_mv):
        # stationarity makes the signed first moment of the gap equal
        # its even second moment, and one minus either is the squared
        # Hansen ratio computed on the primal side
        sm1 = mellin_sign_moments(ex2, ex2_sol_mv, 1)
        sm2 = mellin_sign_moments(ex2, ex2_sol_mv, 2)
        signed_gap = sm1.phi_plus - sm1.phi_minus
        assert signed_gap == pytest.approx(sm2.phi_plus + sm2.phi_minus,
                                           abs=1e-10)
        gv = global_values(cumulative_local_utility(ex2, "mv",
                                                    solution=ex2_sol_mv))
        assert 1.0 - signed_gap == pytest.approx(gv.mhr2, abs=5e-9)

    def test_order_out_of_range(self, ex2, ex2_sol_mv):
        with pytest.raises(ValueError):
            mellin_sign_moments(ex2, ex2_sol_mv, 3)


class TestSignedMeasure:
    def test_diffusive(self, ex2):
        sm = mv_signed_measure(ex2)
        assert sm.mean == 1.0
        assert sm.variance == pytest.approx(1.7430070930, abs=1e-6)
        assert sm.negative_mass == pytest.approx(0.0215771468, abs=1e-6)
        assert not sm.is_probability

    def test_scheduled_jump_exact(self, ex1):
        sm = mv_signed_measure(ex1)
        assert sm.variance == pytest.approx(441.0 / 664.0, abs=1e-12)
        assert sm.negative_mass == pytest.approx(0.2, abs=1e-12)
        assert not sm.is_probability

    def test_divergent_series_raises(self):
        with pytest.raises(InfiniteValue):
            mv_signed_measure(example_model(6, atoms_max=80))

    def test_passed_solution_is_used(self, ex2, ex2_sol_mv):
        assert mv_signed_measure(ex2, solution=ex2_sol_mv) == mv_signed_measure(ex2)


class TestDensityDiagnostics:
    def test_diffusive(self, ex2, ex2_sol_mmv):
        d = density_diagnostics(ex2, solution=ex2_sol_mmv)
        assert d.mean == 1.0
        assert d.second_moment == pytest.approx(2.7481732205, abs=1e-6)
        assert d.variance == pytest.approx(1.7481732205, abs=1e-6)
        assert d.p_zero == pytest.approx(0.0224430699, abs=1e-7)
        assert len(d.sigma_mart_residual) == 1
        assert abs(d.sigma_mart_residual[0][0]) <= 1e-8
        assert not d.equivalent          # Gaussian jumps always cross
        assert d.is_sigma_martingale

    def test_degenerate_optimum_is_not_a_martingale(self, ex4):
        d = density_diagnostics(ex4)
        assert (d.mean, d.second_moment, d.variance) == (1.0, 1.0, 0.0)
        assert d.p_zero == 0.0
        assert d.equivalent
        assert d.sigma_mart_residual[0][0] == pytest.approx(-1.0, abs=1e-8)
        assert not d.is_sigma_martingale
        # the verdict is tolerance-dependent by design
        assert density_diagnostics(ex4, residual_tol=2.0).is_sigma_martingale

    def test_scheduled_jump(self, ex1):
        d = density_diagnostics(ex1)
        assert d.variance == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert d.p_zero == pytest.approx(0.2, abs=1e-10)
        assert len(d.sigma_mart_residual) == 2
        assert not d.equivalent
        assert d.is_sigma_martingale


class TestCoincidence:
    def test_scheduled_jump_differs(self, ex1):
        rep = compare_mv_mmv(ex1)
        assert rep.verdict == "differ"
        assert rep.square_integrable is True
        assert rep.cap_condition is False
        assert rep.max_lambda_gap > 1e-2

    def test_diffusive_differs(self, ex2):
        rep = compare_mv_mmv(ex2)
        assert rep.verdict == "differ"
        assert rep.cap_condition is False

    def test_small_cap_forces_coincidence(self, ex2):
        rep = compare_mv_mmv(capped_variant(ex2, 0.1))
        assert rep.verdict == "coincide"
        assert rep.cap_condition is True
        assert rep.max_lambda_gap == 0.0

    def test_cap_at_the_bliss_level_still_differs(self, ex2):
        rep = compare_mv_mmv(capped_variant(ex2, 1.0 / EX2_LAM_MV))
        assert rep.verdict == "differ"

    def test_heavy_tails_not_applicable(self, ex3, ex4):
        for model in (ex3, ex4):
            rep = compare_mv_mmv(model)
            assert rep.verdict == "not_applicable"
            assert rep.square_integrable is False
            assert rep.cap_condition is None
            assert rep.max_lambda_gap is None
            assert "square integrable" in rep.note

    def test_passed_solutions_are_used(self, ex2, ex2_sol_mv, ex2_sol_mmv):
        assert compare_mv_mmv(ex2, mv_solution=ex2_sol_mv,
                              mmv_solution=ex2_sol_mmv) == compare_mv_mmv(ex2)

    def test_divergent_series_not_applicable(self):
        rep = compare_mv_mmv(example_model(6, atoms_max=100))
        assert rep.verdict == "not_applicable"
        assert rep.square_integrable is True
        assert "infinite" in rep.note

    def test_unbounded_time_point_not_applicable(self, unbounded_config):
        # the monotone dual value is infinite, which is a verdict, not an error
        model = build_model(unbounded_config)
        with pytest.raises(InfiniteValue):
            cumulative_local_utility(model, "mmv")
        rep = compare_mv_mmv(model)
        assert (rep.verdict, rep.square_integrable, rep.cap_condition, rep.max_lambda_gap) \
            == ("not_applicable", True, None, None)
        assert rep.note == "monotone dual value is infinite"


@st.composite
def density_laws(draw):
    """A jump law given by a density: gaussian, exp_tails or tabulated."""
    family = draw(st.sampled_from(["gaussian", "exp_tails", "tabulated"]))
    if family == "gaussian":
        return {"family": family, "mean": draw(st.floats(-0.1, 0.1)),
                "variance": draw(st.floats(0.005, 0.04)), "rate": draw(st.floats(0.5, 2.0))}
    if family == "exp_tails":
        return {"family": family, "c_minus": draw(st.floats(0.5, 3.0)),
                "a": draw(st.floats(6.0, 15.0)), "c_plus": draw(st.floats(0.5, 3.0)),
                "b": draw(st.floats(6.0, 15.0))}
    lo, hi = -draw(st.floats(0.2, 0.6)), draw(st.floats(0.2, 0.8))
    x = np.linspace(lo, hi, draw(st.integers(21, 61)))
    centre, width = draw(st.floats(0.5 * lo, 0.5 * hi)), draw(st.floats(0.05, 0.3))
    dens = draw(st.floats(0.5, 2.0)) * np.exp(-0.5 * ((x - centre) / width) ** 2) / width
    return {"family": family, "x": x.tolist(), "density": dens.tolist(),
            "quadrature": "trapezoid"}


@given(density_laws(), st.floats(0.05, 0.3), st.floats(0.01, 0.09),
       st.booleans(), st.floats(0.05, 0.95))
@settings(max_examples=40, deadline=None)
def test_cap_below_the_bliss_edge_makes_the_kinds_coincide(law, b, c, log_terms, frac):
    # no capped jump reaches the plain kind's bliss level 1/lam_mv, so
    # both kinds maximize the same utility on [0, 1/cap) and their
    # directions agree to the bit
    config = {"horizon": 1.0, "dimension": 1, "segments": [
        {"t_start": 0.0, "t_end": 1.0, "b_kind": "zero", "b": b, "c": c, "jumps": law}]}
    if log_terms:
        config["yield_transform"] = "exp"
    model = build_model(config)
    lam = float(solve_schedule(model, "mv").segment_optima[0].lambda_hat[0])
    assume(lam > 0.0)
    cap = frac / lam
    capped = capped_variant(model, cap)
    lam_capped = float(solve_schedule(capped, "mv").segment_optima[0].lambda_hat[0])
    assume(0.0 < lam_capped * cap < 1.0)
    rep = compare_mv_mmv(capped)
    assert rep.verdict == "coincide"
    assert rep.max_lambda_gap == 0.0


def _density_segment(law, b_kind, b, c, t_start, t_end):
    return {"t_start": t_start, "t_end": t_end, "b_kind": b_kind, "b": b, "c": c,
            "jumps": law}


@given(st.lists(st.tuples(density_laws(), st.sampled_from(["zero", "trunc"]),
                          st.floats(-0.3, 0.3), st.floats(0.01, 0.09)),
                min_size=1, max_size=3),
       st.booleans(), st.floats(0.05, 0.95))
@settings(max_examples=30, deadline=None)
def test_splitting_a_segment_keeps_every_optimum_and_the_duality_identity(
        segments, log_terms, frac):
    # one-dimensional density laws; the first segment is split in two at
    # frac of its length.  Each half solves the same characteristics, so
    # its optimum is the unsplit one bit for bit; and the global values
    # obey 1 + msr2 = 1/(1 - mhr2)
    edges = np.linspace(0.0, 1.0, len(segments) + 1).tolist()
    whole = [_density_segment(*seg, edges[i], edges[i + 1]) for i, seg in enumerate(segments)]
    cut = edges[0] + frac * (edges[1] - edges[0])
    split = [_density_segment(*segments[0], edges[0], cut),
             _density_segment(*segments[0], cut, edges[1]), *whole[1:]]
    models = []
    for segs in (whole, split):
        config = {"horizon": 1.0, "dimension": 1, "segments": segs}
        if log_terms:
            config["yield_transform"] = "exp"
        models.append(build_model(config))
    for kind in ("mv", "mmv"):
        optima = solve_schedule(models[0], kind).segment_optima
        halves = solve_schedule(models[1], kind).segment_optima
        for got, want in zip(halves, (optima[0], *optima)):
            assert got.lambda_hat.tobytes() == want.lambda_hat.tobytes()
            assert got.foc_residual.tobytes() == want.foc_residual.tobytes()
            assert (got.value, got.boundedness, got.tie_break_applied) \
                == (want.value, want.boundedness, want.tie_break_applied)
        for model in models:
            gv = global_values(cumulative_local_utility(model, kind))
            if gv.finite:
                assert 1.0 + gv.msr2 == pytest.approx(1.0 / (1.0 - gv.mhr2), rel=1e-10, abs=0.0)


@st.composite
def consistency_models(draw):
    """A random model: 1-d or 2-d, segments with finite atoms, no jumps or
    (in 1-d) a density law, and zero to three scheduled jumps."""
    dim = draw(st.sampled_from([1, 2]))
    coords = st.sampled_from([-1.5, -0.75, -0.25, 0.25, 0.5, 1.0, 2.0])

    def vec(lo, hi):
        v = [draw(st.floats(lo, hi)) for _ in range(dim)]
        return v if dim > 1 else v[0]

    def law():
        n = draw(st.integers(1, 4))
        pts = [[draw(coords) for _ in range(dim)] for _ in range(n)]
        ms = [draw(st.floats(0.01, 0.24)) for _ in range(n)]     # total at most one
        return pts, ms

    n_seg = draw(st.integers(1, 3))
    edges = np.linspace(0.0, 1.0, n_seg + 1).tolist()
    segments = []
    for t0, t1 in zip(edges[:-1], edges[1:]):
        c = vec(0.0, 0.09)
        seg = {"t_start": t0, "t_end": t1, "b_kind": draw(st.sampled_from(["zero", "trunc"])),
               "b": vec(-0.3, 0.3), "c": np.diag(np.atleast_1d(c)).tolist() if dim > 1 else c}
        jumps = draw(st.sampled_from(["atoms", "none"] + ["density"] * (dim == 1)))
        if jumps == "atoms":
            pts, ms = law()
            seg["jumps"] = {"family": "finite_atoms", "points": pts, "masses": ms}
        elif jumps == "density":
            seg["jumps"] = draw(density_laws())
        segments.append(seg)
    atoms = []
    for k in range(draw(st.integers(0, 3))):
        pts, ms = law()
        atoms.append({"time": 0.25 * (k + 1), "points": pts, "masses": ms})
    return build_model({"horizon": 1.0, "dimension": dim, "segments": segments,
                        "atoms": atoms})


@given(consistency_models())
@settings(max_examples=60, deadline=None)
def test_the_residual_is_the_solvers_first_order_condition_bit_for_bit(model):
    # the dual residual and the solver's reported residuals are one
    # evaluation, at segments and scheduled jumps in every dimension; at
    # finite-atom points the local utility at the optimum is its value
    for kind in ("mv", "mmv"):
        sol = solve_schedule(model, kind)
        stacked = np.concatenate([
            np.array([o.foc_residual for o in sol.segment_optima]).reshape(-1, model.dim),
            sol.atom_optima.foc_residual])
        assert sigma_martingale_residual(model, sol, kind).tobytes() == stacked.tobytes()
        points = [(seg.chars, opt.lambda_hat, opt.value)
                  for seg, opt in zip(model.segments, sol.segment_optima)
                  if seg.chars.jumps is None or isinstance(seg.chars.jumps, FiniteAtoms)]
        points += [(atom.chars, lam, value) for atom, lam, value in
                   zip(model.atoms, sol.atom_optima.lambda_hat, sol.atom_optima.value)]
        for chars, lam, value in points:
            assert local_utility(lam, chars, kind) == value


@st.composite
def criterion_models(draw):
    """(config, cap): one segment with a 1-d density law, plain or in log
    terms, or with 1-d or 2-d finite atoms, or one to three 1-d or 2-d
    scheduled jumps after a diffusion segment.  A 1-d segment law may be
    capped at cap / lam_mv, cap in [0.3, 1.5]."""
    family = draw(st.sampled_from(["density", "atoms", "scheduled"]))
    dim = 1 if family == "density" else draw(st.sampled_from([1, 2]))

    def vec(lo, hi):
        v = [draw(st.floats(lo, hi)) for _ in range(dim)]
        return v if dim > 1 else v[0]

    def law():
        n = draw(st.integers(2, 5))
        coord = st.floats(-0.9, 1.5).filter(lambda x: abs(x) >= 0.01)  # no zero outcome
        pts = [[draw(coord) for _ in range(dim)] for _ in range(n)]
        pts[0] = [-abs(x) - 0.05 for x in pts[0]]       # the first outcome a loss
        return {"points": pts, "masses": [draw(st.floats(0.05, 0.2)) for _ in range(n)]}

    c = vec(0.01, 0.09)
    seg = {"t_start": 0.0, "t_end": 1.0, "b_kind": "zero", "b": vec(0.0, 0.3),
           "c": np.diag(np.atleast_1d(c)).tolist() if dim > 1 else c}
    config = {"horizon": 1.0, "dimension": dim, "segments": [seg]}
    if family == "density":
        seg["jumps"] = draw(density_laws())
        if draw(st.booleans()):
            config["yield_transform"] = "exp"
    elif family == "atoms":
        seg["jumps"] = {"family": "finite_atoms", **law()}
    else:
        config["atoms"] = [{"time": 0.25 * (k + 1), **law()}
                           for k in range(draw(st.integers(1, 3)))]
    capped = dim == 1 and family != "scheduled" and draw(st.booleans())
    return config, draw(st.floats(0.3, 1.5)) if capped else None


@given(criterion_models())
# the searched monotone optimum one ulp below the plain B/C, where the
# Gaussian mass past bliss (6.8e-18) leaves the slope unchanged
@example(({"horizon": 1.0, "dimension": 1, "segments": [
    {"t_start": 0.0, "t_end": 1.0, "b_kind": "zero", "b": 0.1, "c": 0.05,
     "jumps": {"family": "gaussian", "mean": 0.0, "variance": 0.004, "rate": 1.0}}]}, None))
# a 2-d jump whose two outcomes sit at the plain bliss level (-6, 10):
# the monotone maximizers are the plateau where both are capped, and the
# minimum-norm one is another point of it
@example(({"horizon": 1.0, "dimension": 2, "segments": [
    {"t_start": 0.0, "t_end": 1.0, "b_kind": "zero", "b": [0.1, 0.1],
     "c": [[0.05, 0.0], [0.0, 0.05]]}], "atoms": [
    {"time": 0.5, "points": [[-1.0, -0.5], [-0.25, -0.05]], "masses": [0.2, 0.2]}]}, None))
@settings(max_examples=150, deadline=None)
def test_the_cap_condition_alone_decides_whether_the_kinds_coincide(case):
    # "coincide" names the plain optimum as a monotone one: bit for bit,
    # or, where the monotone maximizers form a plateau, a point of it.
    # "differ" means mass passes the plain bliss level 1/lam_mv; in 1-d
    # the monotone slope at lam_mv then exceeds the plain one by the mass
    # integral of x (lam x - 1) past bliss, so |lam_mmv| >= |lam_mv|,
    # strictly where that excess is above the slope's rounding
    config, cap = case
    model = build_model(config)
    if cap is not None:
        lam = float(solve_schedule(model, "mv").segment_optima[0].lambda_hat[0])
        assume(lam > 0.0)
        model = capped_variant(model, cap / lam)
    rep = compare_mv_mmv(model)
    assume(rep.verdict != "not_applicable")
    mv, mmv = solve_schedule(model, "mv"), solve_schedule(model, "mmv")
    chars = [seg.chars for seg in model.segments] + [atom.chars for atom in model.atoms]
    pairs = [*zip(mv.segment_optima, mmv.segment_optima),
             *zip(mv.atom_optima, mmv.atom_optima)]
    if rep.verdict == "coincide":
        for ch, (a, b) in zip(chars, pairs):
            if b.tie_break_applied and a.lambda_hat.tobytes() != b.lambda_hat.tobytes():
                assert local_utility(a.lambda_hat, ch, "mmv") == pytest.approx(b.value, rel=1e-14)
            else:
                assert (a.lambda_hat.tobytes(), a.value) == (b.lambda_hat.tobytes(), b.value)
        return
    if model.dim > 1:
        return
    excess = (sigma_martingale_residual(model, mv, "mmv")
              - sigma_martingale_residual(model, mv, "mv"))[:, 0]
    for ch, (a, b), e in zip(chars, pairs, np.abs(excess)):
        lv, lm = abs(float(a.lambda_hat[0])), abs(float(b.lambda_hat[0]))
        if e > _slope_tol(float(ch.b_trunc[0])):
            assert lm > lv
        else:
            assert lm >= (lv if e > 0.0 else np.nextafter(lv, 0.0))
