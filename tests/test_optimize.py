"""Local utility maximization: pinned optima, flags, exact-solver properties."""
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mmvlab
from mmvlab import (ExpTails1D, FiniteAtoms, Gaussian1D, InfiniteValue,
                    LocalCharacteristics, MarketModel, ScheduledJumps, Segment,
                    build_model, capped_variant, cumulative_local_utility, density_diagnostics,
                    example_model, foc_residual, local_utility,
                    maximize_local_utility, solve_schedule)
from mmvlab._quad import Pieces
from mmvlab.drift import drifts
from mmvlab.localutil import _Rows, _slope_spec
from mmvlab.measures import (TRUNCATION_PIECES, CappedMeasure, ExpYieldMeasure,
                             TabulatedDensity1D, truncate)
from mmvlab.optimize import _CURVATURE, _SQUARE, maximize_atom_laws

import properties

# frozen independently computed optima for the diffusive lognormal segment
EX2_LAM_MV = 4.484438439009606
EX2_VAL2_MV = 1.0090547978
EX2_LAM_MMV = 4.5142830857
EX3_LAM_MMV = 1.1080932585715102
EX3_VAL2_MMV = 0.6572578891


class TestDiffusiveSegment:
    def test_quadratic_optimum(self, ex2):
        opt = maximize_local_utility(ex2.segments[0].chars, "mv")
        assert opt.boundedness == "interior"
        assert float(opt.lambda_hat[0]) == pytest.approx(EX2_LAM_MV, abs=1e-9)
        assert 2.0 * opt.value == pytest.approx(EX2_VAL2_MV, abs=1e-8)
        assert np.max(np.abs(opt.foc_residual)) <= 1e-8

    def test_monotone_optimum(self, ex2):
        opt = maximize_local_utility(ex2.segments[0].chars, "mmv")
        assert opt.boundedness == "interior"
        assert float(opt.lambda_hat[0]) == pytest.approx(EX2_LAM_MMV,
                                                         abs=1e-6)

    def test_perturbation_certificate(self, ex2):
        chars = ex2.segments[0].chars
        for kind in ("mv", "mmv"):
            opt = maximize_local_utility(chars, kind)
            lam = float(opt.lambda_hat[0])
            for eps in (-1e-3, 1e-3):
                assert local_utility(lam + eps, chars, kind) \
                    <= opt.value + 1e-9


class TestHeavyTails:
    def test_monotone_optimum_has_exact_crossing_identity(self, ex3):
        opt = maximize_local_utility(ex3.segments[0].chars, "mmv")
        assert opt.boundedness == "interior"
        assert float(opt.lambda_hat[0]) == pytest.approx(EX3_LAM_MMV,
                                                         abs=1e-8)
        assert 2.0 * opt.value == pytest.approx(EX3_VAL2_MMV, abs=1e-8)

    def test_quadratic_domain_collapses_to_zero(self, ex3):
        opt = maximize_local_utility(ex3.segments[0].chars, "mv")
        assert float(opt.lambda_hat[0]) == 0.0
        assert opt.value == 0.0
        assert opt.boundedness == "flat_direction"
        assert opt.foc_residual is None

    def test_negative_drift_pins_monotone_at_zero(self, ex4):
        opt = maximize_local_utility(ex4.segments[0].chars, "mmv")
        assert float(opt.lambda_hat[0]) == 0.0
        assert opt.value == 0.0
        assert opt.boundedness == "flat_direction"
        assert float(opt.foc_residual[0]) == pytest.approx(-1.0, abs=1e-8)

    def test_foc_at_zero_is_the_identity_drift(self, ex4):
        chars = ex4.segments[0].chars
        for kind in ("mv", "mmv"):
            assert float(foc_residual([0.0], chars, kind)[0]) \
                == pytest.approx(-1.0, abs=1e-8)


class TestScheduledJump:
    def test_quadratic_optimum_exact(self, ex1):
        opt = maximize_local_utility(ex1.atoms[0].chars, "mv")
        assert opt.boundedness == "interior"
        assert not opt.tie_break_applied
        assert opt.lambda_hat == pytest.approx([105 / 221, 105 / 221],
                                               abs=1e-8)
        assert opt.value == pytest.approx(441 / 2210, abs=1e-12)

    def test_monotone_plateau_resolved_by_minimum_norm(self, ex1):
        # the argmax is a whole segment; the tie-break picks its center
        opt = maximize_local_utility(ex1.atoms[0].chars, "mmv")
        assert opt.tie_break_applied
        assert opt.lambda_hat == pytest.approx([0.5, 0.5], abs=1e-14)
        assert opt.value == pytest.approx(0.2, abs=1e-10)

    def test_monotone_optimum_costs_no_search(self, ex1, monkeypatch):
        # one value and one residual row, at the closed form, summed by
        # the row evaluator: no variation is integrated
        calls = _counting_walks(monkeypatch)
        for name in ("value", "residual"):
            def counting(self, *args, _name=name, _method=getattr(_Rows, name)):
                calls.append(_name)
                return _method(self, *args)
            monkeypatch.setattr(_Rows, name, counting)
        maximize_local_utility(ex1.atoms[0].chars, "mmv")
        assert sorted(calls) == ["residual", "value"]

    def test_monotone_corner_of_two_bliss_points(self):
        # the maximizers are the points past both bliss points; the
        # nearest is the corner where both atoms sit at bliss
        opt = maximize_local_utility(properties.jump_chars(
            np.array([[0.5, 0.2], [0.2, 0.5]]), np.array([0.3, 0.3])), "mmv")
        assert opt.lambda_hat == pytest.approx([1 / 0.7, 1 / 0.7], rel=1e-14)
        assert opt.value == pytest.approx(0.3, rel=1e-14)
        assert opt.boundedness == "interior"
        assert opt.tie_break_applied

    def test_diffusive_monotone_optimum_is_unique(self):
        chars = LocalCharacteristics(
            np.array([0.1, 0.05]), np.array([[0.1, 0.02], [0.02, 0.2]]),
            FiniteAtoms(np.array([[0.5, 0.2], [0.2, 0.5], [-0.3, -0.1]]),
                        np.array([0.3, 0.3, 0.2])))
        opt = maximize_local_utility(chars, "mmv")
        assert opt.boundedness == "interior"
        assert not opt.tie_break_applied


def test_several_dimensional_monotone_optima_match_enumeration():
    worst_value, worst_lam, flag_errors = \
        properties.check_atoms_nd_vs_enumeration(n_laws=250, seed=11)
    assert flag_errors == 0
    assert worst_value <= 1e-12
    assert worst_lam <= 1e-9


def test_optimizer_matches_dense_grid():
    assert properties.check_optimizer_vs_grid(n_models=50, seed=13) <= 1e-8


def test_unbounded_ray_is_flagged():
    chars = LocalCharacteristics(np.array([0.5]), np.zeros((1, 1)), None)
    opt = maximize_local_utility(chars, "mv")
    assert opt.boundedness == "unbounded_flagged"
    assert math.isfinite(opt.value)


def test_bounded_quadratic_optimum_on_gain_atoms_is_not_flagged():
    # no loss outcome and no diffusion: only the monotone kind has a free
    # lunch past the last bliss point; the plain kind penalizes every jump
    chars = LocalCharacteristics(
        np.array([1.0]), np.zeros((1, 1)),
        FiniteAtoms(np.array([[0.2], [0.4]]), np.array([1.0, 1.0])))
    mv = maximize_local_utility(chars, "mv")
    assert mv.boundedness == "interior"
    assert float(mv.lambda_hat[0]) == pytest.approx(5.0, rel=1e-14)
    assert mv.value == pytest.approx(2.5, rel=1e-14)
    assert maximize_local_utility(chars, "mmv").boundedness == "unbounded_flagged"
    model = MarketModel(1.0, 1, (Segment(0.0, 1.0, chars),), ScheduledJumps.empty(1))
    cu = cumulative_local_utility(model, "mv")
    assert cu.continuous_part == pytest.approx(5.0, rel=1e-14)
    with pytest.raises(InfiniteValue):
        cumulative_local_utility(model, "mmv")


def test_bounded_quadratic_optimum_on_gain_density_is_not_flagged():
    # the same on a density law: one-sided exponential gains
    chars = LocalCharacteristics(np.array([1.0]), np.zeros((1, 1)),
                                 ExpTails1D(0.0, 1.0, 2.0, 4.0))
    mv = maximize_local_utility(chars, "mv")
    assert mv.boundedness == "interior"
    jumps = chars.jumps
    h = jumps.integrate(TRUNCATION_PIECES)
    B = 1.0 + jumps.integrate(Pieces((), [[0.0, 1.0, 0.0]], ())) - h
    C = jumps.integrate(Pieces((), [[0.0, 0.0, 1.0]], ()))
    assert float(mv.lambda_hat[0]) == pytest.approx(B / C, rel=1e-8)
    assert maximize_local_utility(chars, "mmv").boundedness == "unbounded_flagged"


def _tabulated_model(x, density, b, c, b_kind="trunc", log_terms=False):
    config = {"horizon": 1.0, "dimension": 1, "segments": [
        {"t_start": 0.0, "t_end": 1.0, "b_kind": b_kind, "b": b, "c": c,
         "jumps": {"family": "tabulated", "x": list(x), "density": list(density),
                   "quadrature": "trapezoid"}}]}
    if log_terms:
        config["yield_transform"] = "exp"
    return build_model(config)


def test_tabulated_gains_plateau_takes_its_minimum_norm_end():
    # gains on [0.2, 0.5] only, no drift past them, no diffusion: the
    # monotone utility is flat from 1/0.2 on, every gain frozen at 1/2
    model = _tabulated_model(np.linspace(0.2, 0.5, 31).tolist(), [1.0] * 31,
                             0.0, 0.0, b_kind="zero")
    opt = maximize_local_utility(model.segments[0].chars, "mmv")
    assert float(opt.lambda_hat[0]) == pytest.approx(5.0, rel=1e-12)
    assert opt.value == pytest.approx(0.15, rel=1e-14)
    assert opt.tie_break_applied


@pytest.mark.parametrize("image, inner", [
    ("plain", {1.0: 0.3, -1.0: 0.3}),
    ("exp", {1.0: math.expm1(0.3), -1.0: -math.expm1(-0.3)}),
    ("cap", {1.0: 0.3, -1.0: 0.4})],      # capped at 0.45 and -0.4
    ids=["plain", "exp", "cap"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_tabulated_plateau_start_is_not_left_to_the_search(sign, image, inner):
    # jumps on sign * [0.3, 0.5] (or their exp-yield or capped image), no
    # drift, no diffusion: the slope reaches its zero plateau at 1 over
    # the support's inner end tangentially, so a search stops where it
    # rounds to zero, short of it (1.3e-8 relative on the plain gains)
    x = sign * np.linspace(0.3, 0.5, 31)
    model = _tabulated_model(sorted(x.tolist()), [1.0] * 31, 0.0, 0.0, b_kind="zero",
                             log_terms=image == "exp")
    if image == "cap":
        model = capped_variant(model, 0.45 if sign > 0.0 else -0.4)
    opt = maximize_local_utility(model.segments[0].chars, "mmv")
    assert float(opt.lambda_hat[0]) == pytest.approx(sign / inner[sign], rel=1e-15)
    assert opt.tie_break_applied


def test_tabulated_monotone_optimum_certifies_the_dual_density():
    # the optimum is the slope's zero, found by Newton's steps on the
    # exact integrals of the linear density, and that zero is the
    # sigma-martingale condition of the dual density
    rng = np.random.default_rng(5)
    lo, hi = -rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.8)
    x = np.linspace(lo, hi, 41)
    centre, width = rng.uniform(0.5 * lo, 0.5 * hi), rng.uniform(0.05, 0.3)
    dens = rng.uniform(0.5, 2.0) * np.exp(-0.5 * ((x - centre) / width) ** 2) / width
    model = _tabulated_model(x.tolist(), dens.tolist(), float(rng.uniform(0.02, 0.3)),
                             float(rng.uniform(0.01, 0.09)))
    sol = solve_schedule(model, "mmv")
    opt = sol.segment_optima[0]
    assert opt.boundedness == "interior"
    assert abs(float(opt.foc_residual[0])) <= 1e-8
    assert density_diagnostics(model, solution=sol).is_sigma_martingale


@pytest.mark.parametrize("example", [2, 3])
@pytest.mark.parametrize("kind", ["mv", "mmv"])
def test_density_optimum_costs_one_bisection(example, kind, monkeypatch):
    # example 3 mmv, without diffusion, grows a bracket by factors of 4
    # and takes Newton's steps from its positive end, whose slope it has
    # walked, so the first step walks the curvature alone: 20 rows in 15
    # walks, two steps back and one bisection of them from a slope that
    # rounds to 0.0 one ulp past the root; example 2 mmv, Newton's steps
    # from B/C, 12 rows in 7 walks; example 2 mv, B/C in closed form, four
    # rows in two walks
    walks = _counting_walks(monkeypatch)
    for seg in example_model(example).segments:
        walks.clear()
        maximize_local_utility(seg.chars, kind)
        assert 1 <= sum(map(len, walks)) <= 20


def _counting_walks(monkeypatch):
    """The list every walk of a density law appends its block of specs
    to: a `drifts` call, a single drift being the block of one."""
    walks = []

    def counting(lam, specs, chars):
        walks.append(tuple(specs))
        return drifts(lam, specs, chars)

    for module in (mmvlab.drift, mmvlab.localutil, mmvlab.optimize, mmvlab.duality):
        monkeypatch.setattr(module, "drifts", counting)
    return walks


@pytest.mark.parametrize("b", [2.2250738585e-313, 1e-300, 1e-12])
def test_slope_root_at_the_origin_ends_at_the_law_scale(b, monkeypatch):
    # a drift far below the law's scale puts the slope's first zero at
    # the origin to working precision: B/C falls below eps^2 of the
    # scale, and the search stops there instead of descending to
    # subnormal directions
    calls = _counting_walks(monkeypatch)
    diffusive = LocalCharacteristics(np.array([b]), np.array([[0.25]]),
                                     ExpTails1D(1.0, 8.0, 1.0, 8.0))
    opt = maximize_local_utility(diffusive, "mv")
    assert len(calls) <= 100
    lam, _ = _scanned_mv_optimum(diffusive)      # b / (0.25 + 1/128)
    assert float(opt.lambda_hat[0]) == pytest.approx(lam, rel=1e-9, abs=1e-15)
    density = LocalCharacteristics(np.array([b]), np.zeros((1, 1)),
                                   ExpTails1D(1.0, 8.0, 1.0, 8.0))
    calls.clear()
    opt = maximize_local_utility(density, "mmv")
    # no mass lies past the bliss point, so the optimum is b over the
    # second moment 1/128 of the symmetric law; the slope's tails cancel
    # to about 1e-20, as the atom slope rounds at 1e-16
    assert float(opt.lambda_hat[0]) == pytest.approx(128.0 * b, abs=1e-15)
    assert len(calls) <= 100


@pytest.mark.parametrize("law", [Gaussian1D(0.0, 1e-4, 1.0),
                                 ExpYieldMeasure(Gaussian1D(0.0, 1e-4, 1.0)),
                                 ExpTails1D(1.0, 2000.0, 1.0, 2000.0)])
def test_closed_form_optimum_costs_four_drifts(law, monkeypatch):
    # mv is B/C: the slope at the origin and the curvature in one walk,
    # then the value and the FOC there in another; mmv is the same
    # optimum when no mass passes its bliss point, as on these narrow
    # laws.  The origin's walk is the same for both kinds and is kept on
    # the characteristics, so the second kind makes the second walk alone.
    walks = _counting_walks(monkeypatch)
    chars = LocalCharacteristics(np.array([0.1]), np.array([[0.05]]), law)
    opt = {}
    for kind, want in (("mv", [2, 2]), ("mmv", [2])):
        walks.clear()
        opt[kind] = maximize_local_utility(chars, kind)
        assert [len(w) for w in walks] == want
        assert opt[kind].boundedness == "interior"
    assert law.mass_scaled_ge(opt["mv"].lambda_hat, 1.0, strict=True) == 0.0
    assert opt["mmv"].lambda_hat.tobytes() == opt["mv"].lambda_hat.tobytes()
    for seg in example_model(2).segments:
        walks.clear()
        maximize_local_utility(seg.chars, "mv")
        assert [len(w) for w in walks] == [2, 2]


def _drawn_chars(seed, family, image="plain", diffusive=True):
    """Drift, diffusion and a density jump law drawn from the seed, in
    the ranges of the benchmark's random schedules; built anew on each
    call, so two calls share no characteristics and no law."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(-0.3, 0.3)
    c = rng.uniform(0.01, 0.09) if diffusive else 0.0
    if family == "gaussian":
        law = Gaussian1D(rng.uniform(-0.1, 0.1), rng.uniform(0.005, 0.04), rng.uniform(0.5, 2.0))
    elif family == "exp_tails":
        law = ExpTails1D(rng.uniform(0.5, 3.0), rng.uniform(6.0, 15.0),
                         rng.uniform(0.5, 3.0), rng.uniform(6.0, 15.0))
    else:
        x = np.linspace(-rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.8), 31)
        centre, width = rng.uniform(-0.1, 0.1), rng.uniform(0.05, 0.3)
        law = TabulatedDensity1D(x, rng.uniform(0.5, 2.0)
                                 * np.exp(-0.5 * ((x - centre) / width) ** 2) / width)
    if image in ("yield", "capped_yield"):
        law = ExpYieldMeasure(law)
    if image in ("cap", "capped_yield"):
        law = CappedMeasure(law, rng.uniform(0.05, 0.3))
    return LocalCharacteristics(np.array([b]), np.array([[c]]), law)


@pytest.mark.parametrize("family, image", [("gaussian", "plain"), ("exp_tails", "plain"),
                                           ("gaussian", "yield"), ("exp_tails", "yield")])
def test_newton_point_costs_at_most_ten_walks(family, image, monkeypatch):
    # with diffusion, a monotone point whose mass passes the bliss point
    # of B/C is found by Newton's steps from B/C, each one walk of the
    # slope and its derivative, then a bracket a few ulps wide: the
    # origin's walk, at most six Newton walks and the value, at most ten
    # walks in all, solved first on its characteristics
    walks = _counting_walks(monkeypatch)
    newton_points = 0
    for seed in range(40):
        walks.clear()
        maximize_local_utility(_drawn_chars(seed, family, image), "mmv")
        newton = [w for w in walks if _CURVATURE in w]
        if newton:
            newton_points += 1
            assert all(len(w) == 2 for w in newton)
            assert len(newton) <= 6
            assert len(walks) <= 10
    assert newton_points >= 30


@pytest.mark.parametrize("image", ["plain", "yield", "cap"])
def test_tabulated_points_take_b_over_c_and_newton(image, monkeypatch):
    # a tabulated law is integrated exactly, as the density linear between
    # its nodes, so no node at 1/lam bends its slope: the mv point is B/C
    # in two walks, and an mmv point with diffusion whose mass passes the
    # bliss point of B/C takes Newton's steps from there
    walks = _counting_walks(monkeypatch)
    newton_points = 0
    for seed in range(60):
        chars = _drawn_chars(seed, "tabulated", image)
        res0, curv = drifts(0.0, (_slope_spec(0.0, "mv"), _SQUARE), chars)
        walks.clear()
        mv = maximize_local_utility(chars, "mv")
        assert len(walks) <= 2 and mv.boundedness == "interior"
        assert float(mv.lambda_hat[0]) == res0 / curv
        walks.clear()
        mmv = maximize_local_utility(chars, "mmv")
        assert mmv.boundedness == "interior"
        if chars.jumps.mass_scaled_ge(mv.lambda_hat, 1.0, strict=True) > 0.0:
            newton_points += 1
            assert any(_CURVATURE in w for w in walks)
            assert len(walks) <= 10
        else:
            assert mmv.lambda_hat.tobytes() == mv.lambda_hat.tobytes()
    assert newton_points >= 5


#: draws whose Newton steps leave a bracket two ulps wide with the first
#: nonpositive slope inside it, which the bisection then finds
_NARROWED = [(20, "gaussian", "yield"), (134, "gaussian", "plain"),
             (136, "gaussian", "cap"), (235, "exp_tails", "yield")]


@pytest.mark.parametrize("seed", range(3))
def test_search_ends_where_the_slope_turns_nonpositive(seed):
    # both searches, Newton's steps from B/C (with diffusion) and from
    # the positive end of a grown bracket (without), end at a double
    # where the slope is not positive and is positive one double nearer
    # the origin, on every family.  Only B/C itself, the floor of the
    # monotone search, may have a nonpositive slope before it.
    rng = np.random.default_rng(seed)
    draws = [(int(rng.integers(2 ** 32)), family, image, diffusive)
             for family in ("gaussian", "exp_tails", "tabulated")
             for image in ("plain", "yield", "cap")
             for diffusive in (True, False) for _ in range(8)]
    checked = {True: 0, False: 0}
    for draw in draws + [(*pinned, True) for pinned in _NARROWED]:
        chars = _drawn_chars(*draw)
        opt = maximize_local_utility(chars, "mmv")
        lam = float(opt.lambda_hat[0])
        res0, curv = drifts(0.0, (_slope_spec(0.0, "mmv"), _SQUARE), chars)
        if opt.boundedness != "interior" or lam == res0 / curv:
            continue
        side = math.copysign(1.0, lam)

        def slope(t):
            return side * float(foc_residual([t], chars, "mmv")[0])

        assert slope(lam) <= 0.0 < slope(math.nextafter(lam, 0.0)), (draw, lam.hex())
        checked[draw[3]] += 1
    assert min(checked.values()) >= 20


@pytest.mark.parametrize("family", ["gaussian", "exp_tails", "tabulated"])
@pytest.mark.parametrize("image", ["plain", "yield", "cap", "capped_yield"])
def test_either_kind_first_gives_the_same_bits(family, image):
    # the origin's walk is kept on the characteristics for the other kind:
    # solving mv then mmv, mmv then mv, or either alone gives the same bits
    def bits(o):
        res = None if o.foc_residual is None else o.foc_residual.tobytes()
        return o.lambda_hat.tobytes(), o.value.hex(), res, o.boundedness, o.tie_break_applied

    for seed in range(6):
        diffusive = seed % 2 == 0
        alone = {kind: bits(maximize_local_utility(_drawn_chars(seed, family, image, diffusive),
                                                   kind))
                 for kind in ("mv", "mmv")}
        for order in (("mv", "mmv"), ("mmv", "mv")):
            chars = _drawn_chars(seed, family, image, diffusive)
            for kind in order:
                assert bits(maximize_local_utility(chars, kind)) == alone[kind], (seed, order)


def _example5_closed_form(n):
    """Monotone optimum of example 5's bet n, exactly: B1/C1 on the piece
    where the unit windfall is frozen and the other two outcomes are not."""
    w = Fraction(1, n * n)
    loss, gain = -Fraction(1, n ** 3), Fraction(1, n * n)
    b1 = (Fraction(1, 2) - w) * loss + Fraction(1, 2) * gain
    c1 = (Fraction(1, 2) - w) * loss ** 2 + Fraction(1, 2) * gain ** 2
    return float(b1 / c1)


def test_example5_monotone_bet_is_exact():
    # a numerical search stalled on this bet and reported it interior
    model = example_model(5, atoms_max=1990)
    atom = model.atoms[1989 - 2]
    want = _example5_closed_form(1989)
    got = solve_schedule(model, "mmv").atom_optima[1989 - 2]
    assert float(got.lambda_hat[0]) == pytest.approx(want, rel=1e-12)
    assert got.boundedness == "interior"
    single = maximize_local_utility(atom.chars, "mmv")
    assert float(single.lambda_hat[0]) == pytest.approx(want, rel=1e-12)


def test_plateau_takes_its_minimum_norm_end():
    # gains only, no diffusion: the monotone utility is flat past 1/0.25
    points, masses = np.array([[0.5], [0.25], [1.0]]), np.array([0.2, 0.3, 0.1])
    opt = maximize_local_utility(properties.jump_chars(points, masses), "mmv")
    assert opt.tie_break_applied
    assert opt.boundedness == "interior"
    assert float(opt.lambda_hat[0]) == 4.0
    assert opt.value == pytest.approx(0.3, rel=1e-14)   # every outcome frozen at 1/2
    opt = maximize_local_utility(properties.jump_chars(-points, masses), "mmv")
    assert float(opt.lambda_hat[0]) == -4.0 and opt.tie_break_applied


def test_multidimensional_quadratic_flags_a_riskless_drift():
    # both outcomes move asset 1 only, yet asset 2 drifts: a free lunch
    # for either kind, reported at the origin like a riskless row
    chars = LocalCharacteristics(
        np.array([0.0, 0.3]), np.zeros((2, 2)),
        FiniteAtoms(np.array([[0.5, 0.0], [-0.5, 0.0]]), np.array([0.3, 0.3])))
    for kind in ("mv", "mmv"):
        opt = maximize_local_utility(chars, kind)
        assert opt.boundedness == "unbounded_flagged"
        assert opt.lambda_hat.tolist() == [0.0, 0.0] and opt.value == 0.0
    flat = LocalCharacteristics(np.array([0.0, 0.0]), chars.cov, chars.jumps)
    opt = maximize_local_utility(flat, "mv")
    assert opt.boundedness == "interior" and opt.tie_break_applied
    assert opt.lambda_hat[1] == 0.0


@pytest.mark.parametrize("kind", ["mv", "mmv"])
def test_a_tiny_opposing_atom_curves_its_direction(kind):
    # C = diag(1, 1e-30): the second eigenvalue is far below eps of the
    # first, yet the (0, -1) atom curves that direction, as the atom -1
    # of the same mass does in one dimension; an eigenvalue cut would
    # call the drift 0.1 along it riskless
    law = FiniteAtoms(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]),
                      np.array([0.5, 0.5, 1e-30]))
    opt = maximize_local_utility(
        LocalCharacteristics(np.array([0.0, 0.1]), np.zeros((2, 2)), law), kind)
    one = maximize_local_utility(LocalCharacteristics(
        np.array([0.1]), np.zeros((1, 1)), FiniteAtoms(np.array([[-1.0]]), np.array([1e-30]))),
        kind)
    assert opt.boundedness == one.boundedness == "interior"
    assert float(one.lambda_hat[0]) == pytest.approx(0.1 / 1e-30, rel=1e-12)
    assert opt.lambda_hat == pytest.approx([0.0, 0.1 / 1e-30], rel=1e-12, abs=1e-12)
    assert opt.value == pytest.approx(one.value, rel=1e-12)


@pytest.mark.parametrize("kind", ["mv", "mmv"])
def test_a_curvature_past_rounding_of_the_atoms_still_has_a_verdict(kind):
    # c = 2.8e-65 on one axis and one atom on the diagonal: the piece's
    # optimum lands 4e47 out by rounding alone, at bliss to within its
    # size, and the least distance of that tie passes 1 / eps, where
    # the NNLS residual's last entry rounds to 0
    chars = LocalCharacteristics(
        np.zeros(2), np.diag([0.0, float.fromhex("0x1.75e4856d705bcp-215")]),
        FiniteAtoms(np.array([[-1.5, -1.5]]), np.array([0.125])))
    opt = maximize_local_utility(chars, kind)
    assert np.isfinite(opt.lambda_hat).all() and opt.value >= 0.0
    # the exact optimum is (-2/3, 0) with value 1/16, but cond(C_S) = 1e64
    # leaves lam to rounding: the origin is reported, and not as stationary
    assert opt.lambda_hat.tolist() == [0.0, 0.0] and opt.boundedness == "flat_direction"


class _Factorized(Exception):
    pass


def _refuse_factorizations(monkeypatch):
    def refuse(*args, **kwargs):
        raise _Factorized
    for name in ("eigh", "svd", "qr", "lstsq", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)


def _bits(opt):
    return ([v.hex() for v in opt.lambda_hat.tolist()], opt.value.hex(),
            [v.hex() for v in opt.foc_residual.tolist()], opt.boundedness, opt.tie_break_applied)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["mv", "mmv"])
def test_a_still_point_has_one_verdict_in_every_dimension(dim, kind, monkeypatch):
    # no drift, no diffusion and no jump mass: every lam maximizes the
    # zero utility, so the origin is stationary and a tie, in 1-d rows as
    # in several dimensions.  It is answered before any factorization, a
    # drift of -0.0 is as still as +0.0, and every figure is +0.0.
    signed = np.where(np.arange(dim) == 0, -0.0, 0.0)
    still = [LocalCharacteristics(b, np.zeros((dim, dim)), None) for b in (np.zeros(dim), signed)]
    massless = properties.jump_table([(np.ones((2, dim)), np.zeros(2))], [0.5])
    _refuse_factorizations(monkeypatch)
    for opt in [maximize_local_utility(p, kind) for p in still] + [
            maximize_atom_laws(massless, kind)[0]]:
        assert _bits(opt) == ([(0.0).hex()] * dim, (0.0).hex(), [(0.0).hex()] * dim,
                              "interior", True)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("kind", ["mv", "mmv"])
def test_a_point_next_to_still_keeps_the_active_set(dim, kind, monkeypatch):
    # a drift or a diffusion entry of 1e-300, or an atom of mass 1e-30,
    # is not still: it takes the active set, whose optimum (pinned from it
    # before still points were answered apart) is the tied origin
    e, zero = np.eye(dim)[0], np.zeros((dim, dim))
    near = {"drift": LocalCharacteristics(1e-300 * e, zero, None),
            "diffusion": LocalCharacteristics(np.zeros(dim), np.diag(1e-300 * e), None),
            "atom": LocalCharacteristics(np.zeros(dim), zero, FiniteAtoms(e[None], [1e-30]))}
    for name, chars in near.items():
        res = [1e-300 if name == "drift" and i == 0 else 0.0 for i in range(dim)]
        assert _bits(maximize_local_utility(chars, kind)) == (
            [(0.0).hex()] * dim, (0.0).hex(), [v.hex() for v in res], "interior", True)
    _refuse_factorizations(monkeypatch)
    for chars in near.values():
        with pytest.raises(_Factorized):
            maximize_local_utility(chars, kind)


def _rotated(chars, Q):
    """chars in the axes Q: points, diffusion and zero-truncation drift
    turned by Q (the truncation h is componentwise, so b moves with it)."""
    x, m = chars.jumps.points, chars.jumps.masses
    b0 = chars.b_trunc - m @ truncate(x)
    return LocalCharacteristics(Q @ b0 + m @ truncate(x @ Q.T), Q @ chars.cov @ Q.T,
                                FiniteAtoms(x @ Q.T, m))


@st.composite
def rotated_atom_laws(draw):
    """Several-dimensional atom characteristics of a family of
    `properties.random_nd_atom_chars`, a random rotation, and a kind."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.sampled_from([2, 3]))
    chars = properties.random_nd_atom_chars(gen, draw(st.sampled_from(properties._ND_FAMILIES)),
                                            dim, int(gen.integers(2, 8)))
    q, r = np.linalg.qr(gen.normal(size=(dim, dim)))
    return chars, q * np.sign(np.diag(r)), draw(st.sampled_from(["mv", "mmv"]))


def _turn(dim, i, j):
    """The turn by 30 degrees of the axes i and j."""
    q = np.eye(dim)
    q[np.ix_([i, j], [i, j])] = [[math.cos(math.pi / 6), -math.sin(math.pi / 6)],
                                 [math.sin(math.pi / 6), math.cos(math.pi / 6)]]
    return q


def _tiny(dim):
    """Atoms +-e1 of mass 0.5, -e2 of mass 1e-30 and a drift 0.1 e2."""
    x = np.zeros((3, dim))
    x[[0, 1, 2], [0, 0, 1]] = [1.0, -1.0, -1.0]
    return LocalCharacteristics(0.1 * np.eye(dim)[1], np.zeros((dim, dim)),
                                FiniteAtoms(x, np.array([0.5, 0.5, 1e-30])))


# a 1e-30 curvature that C = c + sum m x x', formed in axes turned by 30
# degrees, rounds away (lam 1.3e16 instead of 1e29, and flat_direction)
@example((_tiny(2), _turn(2, 0, 1), "mv"))
@example((_tiny(2), _turn(2, 0, 1), "mmv"))
# and turned out of the plane of its atoms, where the solve's steps and
# its verdict must read lam . x with one rounding
@example((_tiny(3), _turn(3, 1, 2) @ _turn(3, 0, 1), "mv"))
@example((_tiny(3), _turn(3, 1, 2) @ _turn(3, 0, 1), "mmv"))
@given(rotated_atom_laws())
@settings(max_examples=200, deadline=None)
def test_rotating_the_model_rotates_the_optimum(case):
    # with the condition scaling of check_atoms_nd_vs_enumeration: the
    # value sums terms of size |C_S| |lam|^2, and lam is determined to
    # rounding times the condition of C_S, S the atoms capped at lam
    chars, Q, kind = case
    a, b = (maximize_local_utility(ch, kind) for ch in (chars, _rotated(chars, Q)))
    assert (b.boundedness, b.tie_break_applied) == (a.boundedness, a.tie_break_applied)
    lam, x, m = a.lambda_hat, chars.jumps.points, chars.jumps.masses
    norm = float(np.linalg.norm(lam))
    free = x @ lam <= 1.0 + 1e-9 * (1.0 + np.linalg.norm(x, axis=1) * norm) \
        if kind == "mmv" else np.ones(m.size, dtype=bool)
    sv = np.linalg.svd(chars.cov + (x[free] * m[free, None]).T @ x[free], compute_uv=False)
    cond = sv[0] / sv[sv > sv[0] * sv.size * np.finfo(float).eps][-1] if sv[0] > 0.0 else 1.0
    assert abs(b.value - a.value) <= 1e-12 * (1.0 + abs(a.value) + sv[0] * norm * norm)
    assert np.linalg.norm(Q.T @ b.lambda_hat - lam) <= 1e-9 * (1.0 + norm) * max(1.0, 1e-6 * cond)


_POINTS = st.floats(-2.0, 3.0).filter(lambda v: abs(v) >= 1e-3)


@st.composite
def atom_laws(draw, dim=1):
    """A scheduled-jump law in dim dimensions: 1-5 outcomes with nonzero
    coordinates, total mass at most one."""
    pts = draw(st.lists(st.lists(_POINTS, min_size=dim, max_size=dim), min_size=1, max_size=5))
    ms = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(pts),
                                max_size=len(pts))))
    ms *= draw(st.floats(0.1, 1.0)) / ms.sum()
    return FiniteAtoms(np.array(pts), ms)


@given(atom_laws(), st.floats(0.05, 20.0), st.sampled_from(["mv", "mmv"]))
@settings(max_examples=150, deadline=None)
def test_rescaling_jumps_rescales_the_optimum(law, s, kind):
    table = properties.jump_table([(law.points, law.masses), (s * law.points, law.masses)],
                                  [0.5, 1.0])
    a, b = maximize_atom_laws(table, kind)
    assert float(b.lambda_hat[0]) * s == pytest.approx(float(a.lambda_hat[0]),
                                                       rel=1e-10)
    assert b.value == pytest.approx(a.value, rel=1e-10, abs=1e-14)


@given(st.integers(1, 3).flatmap(lambda dim: st.lists(atom_laws(dim), min_size=1,
                                                     max_size=6)),
       st.sampled_from(["mv", "mmv"]))
@settings(max_examples=100, deadline=None)
def test_batched_schedule_equals_single_points_bit_for_bit(laws, kind):
    dim = laws[0].dim
    table = properties.jump_table([(law.points, law.masses) for law in laws],
                                  0.1 * np.arange(1, len(laws) + 1))
    segment = Segment(0.0, 1.0, LocalCharacteristics(np.zeros(dim), np.zeros((dim, dim)),
                                                     None))
    model = MarketModel(1.0, dim, (segment,), table)
    batched = solve_schedule(model, kind).atom_optima
    for atom, got in zip(table, batched):
        want = maximize_local_utility(atom.chars, kind)
        assert got.lambda_hat.tobytes() == want.lambda_hat.tobytes()
        assert got.foc_residual.tobytes() == want.foc_residual.tobytes()
        assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
        assert (got.boundedness, got.tie_break_applied) \
            == (want.boundedness, want.tie_break_applied)


def _mp_integral(law, g, kinks):
    """Integral of g against a Gaussian or exponential-tail law, or its
    image under x -> e^x - 1, by mpmath; g kinks at the points kinks."""
    if isinstance(law, ExpYieldMeasure):
        return _mp_integral(law.base, lambda x: g(mp.expm1(x)),
                            [mp.log1p(k) for k in kinks if k > -1])
    if isinstance(law, Gaussian1D):
        mu, sd, r = mp.mpf(law.mean), mp.sqrt(mp.mpf(law.variance)), mp.mpf(law.rate)
        own = [mu + k * sd for k in (-8, -2, 0, 2, 8)]

        def rho(x):
            return r * mp.npdf(x, mu, sd)
    else:
        cm, a, cp, b = map(mp.mpf, (law.c_minus, law.a, law.c_plus, law.b))
        own = [mp.mpf(0)]

        def rho(x):
            return cm * mp.exp(a * x) if x < 0 else cp * mp.exp(-b * x)
    points = [-mp.inf, *sorted(set(map(mp.mpf, kinks)) | set(own)), mp.inf]
    return mp.quad(lambda x: g(x) * rho(x), points)


def _scanned_mv_optimum(chars):
    """Argmax and maximum of the explicit plain objective B lam - C lam^2/2.

    B = b + integral of x - h(x) and C = c + integral of x^2 come from
    mpmath quadrature at 20 digits; at 40, a grid of 41 points on [-1e6,
    1e6] is zoomed to the two cells around its maximum until the cells
    fall below 1e-30 of the argmax.
    """
    law = chars.jumps
    with mp.workdps(20):
        B = float(chars.b_trunc[0]) + _mp_integral(
            law, lambda x: x if abs(x) > 1 else mp.mpf(0), [-1.0, 1.0])
        C = float(chars.cov[0, 0]) + _mp_integral(law, lambda x: x * x, [])
    with mp.workdps(40):
        lo, hi = mp.mpf(-1e6), mp.mpf(1e6)
        while True:
            grid = mp.linspace(lo, hi, 41)
            values = [B * lam - C * lam * lam / 2 for lam in grid]
            k = max(range(41), key=values.__getitem__)
            assert 0 < k < 40 or hi - lo < 1e6, "the scan clipped the optimum"
            if hi - lo <= 1e-30 * (abs(grid[k]) + mp.mpf(1e-300)):
                return float(grid[k]), float(values[k])
            lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 40)]


_POSITIVE = st.floats(0.1, 3.0)
density_laws = st.one_of(
    st.builds(Gaussian1D, st.floats(-0.3, 0.3), st.floats(1e-4, 0.05), _POSITIVE),
    st.builds(ExpTails1D, _POSITIVE, st.floats(2.5, 40.0), _POSITIVE, st.floats(2.5, 40.0)),
    st.builds(ExpTails1D, st.just(0.0), st.floats(2.5, 40.0), _POSITIVE, st.floats(2.5, 40.0)),
).flatmap(lambda law: st.sampled_from([law, ExpYieldMeasure(law)]))


@given(density_laws, st.floats(-0.5, 0.5), st.floats(0.0, 0.3))
@settings(max_examples=30, deadline=None)
def test_quadratic_closed_form_matches_a_grid_scan(law, b, c):
    # the plain optimum on a density law is B/C in closed form, no search
    chars = LocalCharacteristics(np.array([b]), np.array([[c]]), law)
    opt = maximize_local_utility(chars, "mv")
    lam, value = _scanned_mv_optimum(chars)
    assert opt.boundedness == "interior"
    assert float(opt.lambda_hat[0]) == pytest.approx(lam, rel=1e-9, abs=1e-15)
    assert opt.value == pytest.approx(value, rel=1e-9, abs=1e-15)


def test_tiny_diffusion_still_bounds_the_monotone_ray():
    # a diffusion of 1e-15 once fell below an absolute threshold, and the
    # one-sided jumps left a positive asymptotic slope: a false free lunch
    chars = LocalCharacteristics(np.array([0.1]), np.array([[1e-15]]),
                                 ExpTails1D(0.0, 5.0, 1.0, 5.0))
    assert maximize_local_utility(chars, "mv").boundedness == "interior"
    opt = maximize_local_utility(chars, "mmv")
    assert opt.boundedness == "interior"
    assert math.isfinite(opt.value) and float(opt.lambda_hat[0]) > 1e13


@st.composite
def scaled_density_laws(draw):
    """Drift, diffusion and a density jump law, with the jump rates of the law."""
    b = draw(st.floats(-0.3, 0.3))
    c = draw(st.floats(0.001, 0.1))
    if draw(st.booleans()):
        params = (draw(st.floats(0.0, 2.0)), draw(st.floats(3.0, 12.0)),
                  draw(st.floats(0.0, 2.0)), draw(st.floats(3.0, 12.0)))
        return b, c, lambda s: ExpTails1D(s * params[0], params[1], s * params[2], params[3])
    mean, var, rate = (draw(st.floats(-0.2, 0.2)), draw(st.floats(0.001, 0.05)),
                       draw(st.floats(0.1, 2.0)))
    return b, c, lambda s: Gaussian1D(mean, var, s * rate)


@given(scaled_density_laws(), st.floats(-20.0, 0.0), st.sampled_from(["mv", "mmv"]))
@settings(max_examples=40, deadline=None)
@example((0.0, 0.0625, lambda s: ExpTails1D(0.5 * s, 12.0, s, 12.0)), 0.0, "mmv")
def test_rescaling_diffusion_and_jumps_keeps_an_interior_optimum(law, log_s, kind):
    # scaling c and the jump measure by s scales the optimum by 1/s
    b, c, jumps = law

    def verdict(s):
        chars = LocalCharacteristics(np.array([b]), np.array([[s * c]]), jumps(s))
        return maximize_local_utility(chars, kind).boundedness

    if verdict(1.0) == "interior":
        for s in (10.0 ** log_s, 1e-5, 1e-10, 1e-14, 1e-17, 1e-20):
            assert verdict(s) == "interior", s
