"""Clock aggregation, global values, ratio conversions, strategies."""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmvlab
from mmvlab import (CumulativeUtility, DomainError, InfiniteValue,
                    UtilityKind, compare_mv_mmv, compounding_dual,
                    cumulative_local_utility, density_diagnostics,
                    det_stoch_exponential, example_model, global_values,
                    mv_signed_measure, sharpe_hansen_convert, solve_schedule,
                    strategy_descriptor)

import properties


def test_solution_structure(ex2_sol_mmv):
    assert ex2_sol_mmv.kind is UtilityKind.MMV
    assert len(ex2_sol_mmv.segment_optima) == 1
    assert len(ex2_sol_mmv.atom_optima) == 0
    assert len(ex2_sol_mmv.segment_lambdas()) == 1


@pytest.fixture
def count_solves(monkeypatch):
    calls = []
    solve = mmvlab.aggregate.maximize_local_utility

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(mmvlab.aggregate, "maximize_local_utility", counting)
    return calls


@pytest.mark.parametrize("kind", ["mv", "mmv"])
def test_optima_are_read_only(ex1, ex2, kind):
    # a density segment, a two-asset atom and a batch of one-asset atoms
    models = (ex2, ex1, example_model(5, atoms_max=10))
    for model in models:
        sol = solve_schedule(model, kind)
        for opt in (*sol.segment_optima, *sol.atom_optima):
            for arr in (opt.lambda_hat, opt.foc_residual):
                with pytest.raises(ValueError):
                    arr[0] = 0.0


def test_a_solved_model_is_not_solved_again(count_solves):
    model = example_model(2)
    solve_schedule(model, "mv")
    solve_schedule(model, "mmv")
    assert len(count_solves) == 2
    count_solves.clear()
    mv_signed_measure(model)
    compare_mv_mmv(model)
    density_diagnostics(model)
    for kind in ("mv", "mmv"):
        cumulative_local_utility(model, kind)
    assert count_solves == []
    # the memo belongs to the model instance, not to its config
    solve_schedule(example_model(2), "mv")
    assert len(count_solves) == 1


def test_the_memo_makes_no_reference_cycle():
    model = example_model(2)
    solve_schedule(model, "mmv")
    ref = weakref.ref(model)
    gc.disable()
    try:
        del model
        assert ref() is None
    finally:
        gc.enable()


def test_single_jump_aggregation_is_exact(ex1):
    cu = cumulative_local_utility(ex1, "mmv")
    assert cu.continuous_part == 0.0
    assert cu.finite
    assert cu.atom_increments.shape == (1,)
    assert ex1.atoms.times.tolist() == [1.0]
    assert cu.atom_increments[0] == pytest.approx(0.4, abs=1e-12)
    gv = global_values(cu)
    assert gv.finite
    assert gv.u0 == pytest.approx(0.2, abs=1e-12)
    assert gv.v0 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert gv.msr2 == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert gv.mhr2 == pytest.approx(0.4, abs=1e-12)
    assert gv.scale == pytest.approx(5.0 / 3.0, abs=1e-12)


def test_diffusive_global_values(ex2, ex2_sol_mv, ex2_sol_mmv):
    gv_mv = global_values(cumulative_local_utility(ex2, "mv",
                                                   solution=ex2_sol_mv))
    assert gv_mv.msr2 == pytest.approx(1.7430070930, abs=1e-6)
    assert gv_mv.mhr2 == pytest.approx(0.6354365971, abs=1e-7)
    gv_mmv = global_values(cumulative_local_utility(ex2, "mmv",
                                                    solution=ex2_sol_mmv))
    assert gv_mmv.msr2 == pytest.approx(1.7481732205, abs=1e-6)
    assert gv_mmv.mhr2 == pytest.approx(0.6361219182, abs=1e-7)
    # the monotone repair can only enlarge the attainable utility
    assert gv_mmv.u0 >= gv_mv.u0


def test_exponential_inversion_identity():
    assert properties.check_exponential_inversion(n_cases=500,
                                                  seed=17) <= 1e-12


def test_compounding_dual_rejects_unit_increment():
    cu = CumulativeUtility(0.0, (1.0,), True)
    with pytest.raises(DomainError):
        compounding_dual(cu)


def test_nonpositive_factor_is_flagged():
    cu = CumulativeUtility(0.2, (1.0, 0.5), True)
    det = det_stoch_exponential(cu, -1.0)
    assert det.nonpositive_factor
    assert det.value == 0.0


def _sequential_exponential(continuous, incs, sign):
    """The product as a loop takes it: one factor after another."""
    value, bad = math.exp(sign * continuous), False
    for inc in incs:
        factor = 1.0 + sign * inc
        bad = bad or factor <= 0.0
        value *= factor
    return value, bad


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 3.0), st.lists(st.floats(0.0, 2.0), max_size=200),
       st.sampled_from([-1.0, 1.0]))
def test_exponential_multiplies_in_model_order(continuous, incs, sign):
    det = det_stoch_exponential(CumulativeUtility(continuous, incs, True), sign)
    value, bad = _sequential_exponential(continuous, incs, sign)
    assert repr(det.value) == repr(value)       # bit for bit, signed zeros too
    assert det.nonpositive_factor is bad


def test_exponential_order_on_random_clock_sums():
    gen = np.random.default_rng(31)
    for n in (0, 1, 7, 8, 9, 64, 1000, 4097):
        incs = gen.uniform(0.0, 1.2, size=n)
        for sign in (-1.0, 1.0):
            det = det_stoch_exponential(CumulativeUtility(0.7, incs, True), sign)
            assert (det.value, det.nonpositive_factor) \
                == _sequential_exponential(0.7, incs.tolist(), sign)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 0.99), max_size=30), st.floats(1.0, 1e6), st.data())
def test_compounding_dual_rejects_any_increment_at_or_above_one(incs, big, data):
    incs.insert(data.draw(st.integers(0, len(incs))), big)
    with pytest.raises(DomainError):
        compounding_dual(CumulativeUtility(0.0, incs, True))


def test_increments_are_a_read_only_array_of_one_float_per_jump():
    cu = cumulative_local_utility(example_model(5, atoms_max=10), "mv")
    assert cu.atom_increments.dtype == float and cu.atom_increments.shape == (9,)
    with pytest.raises(ValueError):
        cu.atom_increments[0] = 0.0
    passed = np.array([0.1, 0.2])
    CumulativeUtility(0.0, passed, True)
    assert passed.flags.writeable           # the caller's array is copied, not frozen
    with pytest.raises(ValueError):         # (time, increment) pairs are refused
        CumulativeUtility(0.0, ((0.5, 0.1),), True)


def test_divergent_series_yields_the_saturated_values():
    gv = global_values(CumulativeUtility(0.3, (), False))
    assert (gv.u0, gv.mhr2, gv.finite) == (0.5, 1.0, False)
    assert gv.v0 == math.inf and gv.msr2 == math.inf and gv.scale == math.inf


def test_ratio_identity_on_random_clock_sums():
    gen = np.random.default_rng(29)
    for _ in range(200):
        n = int(gen.integers(0, 8))
        gen.uniform(0.0, 1.0, size=n)       # the jump times, which aggregation ignores
        incs = gen.uniform(0.0, 0.9, size=n)
        gv = global_values(CumulativeUtility(float(gen.uniform(0.0, 2.0)),
                                             incs, True))
        # compare in the bounded coordinate: mhr2 = 1 - 1/scale is
        # well-conditioned even when the scale is huge
        assert gv.mhr2 == pytest.approx(1.0 - 1.0 / gv.scale, abs=5e-15)
        assert sharpe_hansen_convert(sr2=gv.msr2) \
            == pytest.approx(gv.mhr2, abs=5e-15)


def test_ratio_conversion_roundtrip_and_domain():
    assert properties.check_sr_hr_roundtrip(n_points=1000) <= 1e-14
    with pytest.raises(DomainError):
        sharpe_hansen_convert()
    with pytest.raises(DomainError):
        sharpe_hansen_convert(hr2=0.5, sr2=1.0)
    with pytest.raises(DomainError):
        sharpe_hansen_convert(hr2=1.0)
    with pytest.raises(DomainError):
        sharpe_hansen_convert(hr2=-0.1)
    with pytest.raises(DomainError):
        sharpe_hansen_convert(sr2=math.inf)
    with pytest.raises(DomainError):
        sharpe_hansen_convert(sr2=-1.0)


def test_strategy_descriptor_diffusive(ex2, ex2_sol_mv):
    desc = strategy_descriptor(ex2, "mv", x=0.0, gamma=2.0,
                               solution=ex2_sol_mv)
    assert desc.scale == pytest.approx(2.7430070930, abs=1e-6)
    assert desc.gamma == 2.0
    assert len(desc.lambda_schedule) == 1
    entry = desc.lambda_schedule[0]
    assert entry["type"] == "segment"
    assert entry["lambda"] == pytest.approx([4.484438439009606], abs=1e-6)


def test_strategy_schedule_is_clock_ordered(ex1):
    desc = strategy_descriptor(ex1, "mmv")
    kinds = [e["type"] for e in desc.lambda_schedule]
    assert kinds == ["segment", "atom"]
    assert desc.lambda_schedule[1]["time"] == 1.0


def test_strategy_descriptor_rejects_bad_gamma(ex1):
    # a bliss level x + scale/gamma needs a finite capital and a positive,
    # finite risk aversion
    for gamma, x in ((0.0, 0.0), (math.inf, 0.0), (math.nan, 0.0), (1.0, math.nan),
                     (1.0, math.inf), (1.0, -math.inf)):
        with pytest.raises(DomainError):
            strategy_descriptor(ex1, "mmv", x=x, gamma=gamma)


def test_strategy_descriptor_requires_finite_dual():
    model = example_model(6, atoms_max=100)
    with pytest.raises(InfiniteValue):
        strategy_descriptor(model, "mv")


def test_unbounded_time_point_raises():
    # a deterministic nonzero-drift segment has unbounded local utility
    from mmvlab import build_model
    model = build_model({
        "horizon": 1.0, "dimension": 1,
        "segments": [{"t_start": 0.0, "t_end": 1.0, "b_kind": "trunc",
                      "b": [0.5], "c": [[0.0]]}],
    })
    with pytest.raises(InfiniteValue):
        cumulative_local_utility(model, "mv")


def _two_jump_model(dim):
    """One still segment and two scheduled jumps in dim dimensions."""
    return mmvlab.build_model({
        "horizon": 1.0, "dimension": dim,
        "segments": [{"t_start": 0.0, "t_end": 1.0, "b_kind": "zero", "b": [0.1] * dim,
                      "c": (0.05 * np.eye(dim)).tolist()}],
        "atoms": [{"time": t, "points": [[-0.5] * dim, [0.5] * dim], "masses": [0.2, 0.2]}
                  for t in (0.3, 0.6)]})


@pytest.mark.parametrize("dim, lams", [
    # a 1-d model given 2-component jump directions: they were read as
    # four 1-d ones, and the sums returned figures or a broadcast error
    (1, [[1.0], [1.0, 2.0], [0.5, 0.5]]),
    # a 2-d model given 1-component jump directions: two of them were read
    # as one row, and the sums raised an IndexError
    (2, [[1.0, 1.0], [1.0], [2.0]])],
    ids=["long", "short"])
def test_a_schedule_entry_of_the_wrong_length_is_named(dim, lams):
    model = _two_jump_model(dim)
    schedule = [np.array(v) for v in lams]
    for call in (lambda: mmvlab.zero_density_probability(model, schedule),
                 lambda: mmvlab.mellin_sign_moments(model, schedule, 1),
                 lambda: mmvlab.sigma_martingale_residual(model, schedule, "mmv")):
        with pytest.raises(ValueError, match=rf"^schedule entry 1 has shape \({len(lams[1])},\)"):
            call()
