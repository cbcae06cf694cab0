"""Simulation determinism, wealth recursion, and estimators."""
import math

import numpy as np
import pytest

from mmvlab import (InvariantError, PathStats, SimConfig, build_model,
                    estimate_stats, example_model, run_wealth_study,
                    simulate_paths, solve_schedule, wealth_recursion)
from mmvlab.montecarlo import _BLOCK_UNITS, capped_exponential

import properties

EX2_DRIFT_OF_ID = 0.22501252085940096


def pure_diffusion_model():
    return build_model({
        "horizon": 1.0, "dimension": 1,
        "segments": [{"t_start": 0.0, "t_end": 1.0, "b_kind": "trunc",
                      "b": [0.12], "c": [[0.09]]}],
    })


def zero_model():
    return build_model({
        "horizon": 1.0, "dimension": 1,
        "segments": [{"t_start": 0.0, "t_end": 1.0, "b_kind": "trunc",
                      "b": [0.0], "c": [[0.0]]}],
    })


def split_jump_model(rate):
    """Two unit segments with jumps of size exactly 2 and no drift.

    The first jumps at `rate` and is split by a scheduled jump at t = 0.3,
    so its step rows have unequal dt; the second has a jump law of zero
    mass.  A step row's increment is twice its jump count.
    """
    seg = {"b_kind": "trunc", "b": 0.0, "c": 0.0}
    return build_model({
        "horizon": 2.0, "dimension": 1,
        "segments": [
            dict(seg, t_start=0.0, t_end=1.0, jumps={
                "family": "finite_atoms", "points": [[2.0]], "masses": [rate]}),
            dict(seg, t_start=1.0, t_end=2.0, jumps={
                "family": "finite_atoms", "points": [[2.0]], "masses": [0.0]})],
        "atoms": [{"time": 0.3, "points": [[0.5]], "masses": [0.5]}],
    })


class TestDeterminism:
    def test_same_seed_is_bitwise_identical(self, ex2):
        sim = SimConfig(n_paths=16, n_steps=8, seed=5)
        a = simulate_paths(ex2, sim)
        b = simulate_paths(ex2, sim)
        assert np.array_equal(a.increments, b.increments)

    def test_study_is_a_prefix_of_a_longer_study(self, ex2, ex2_sol_mmv):
        assert properties.check_prefix_determinism(ex2, ex2_sol_mmv)

    def test_seeds_differ(self, ex2):
        a = simulate_paths(ex2, SimConfig(n_paths=8, n_steps=8, seed=1))
        b = simulate_paths(ex2, SimConfig(n_paths=8, n_steps=8, seed=2))
        assert not np.array_equal(a.increments, b.increments)


class TestAntithetic:
    def test_pure_diffusion_pairs_mirror_around_the_drift(self):
        model = pure_diffusion_model()
        sim = SimConfig(n_paths=8, n_steps=8, seed=3, antithetic=True)
        ps = simulate_paths(model, sim)
        dt = 1.0 / 8.0
        for k in range(0, 8, 2):
            pair_sum = ps.increments[k] + ps.increments[k + 1]
            np.testing.assert_allclose(pair_sum, 2.0 * 0.12 * dt, atol=1e-15)


class TestWealthRecursion:
    def test_zero_model_stays_at_the_start(self):
        ps = simulate_paths(zero_model(), SimConfig(n_paths=4, n_steps=4))
        w = wealth_recursion(ps, [[1.0]], "mv")
        assert np.all(w == 0.0)
        assert np.all(capped_exponential(ps, [[1.0]]) == 1.0)

    def test_capped_product_is_the_positive_wealth_gap(self, ex2,
                                                       ex2_sol_mmv):
        worst = properties.check_pathwise_identity(ex2, ex2_sol_mmv)
        assert worst <= 1e-12

    def test_monotone_freeze_caps_the_crossing_fraction(self, ex1):
        sol_lams = [[0.0, 0.0], [0.5, 0.5]]
        sim = SimConfig(n_paths=4000, n_steps=4, seed=11, antithetic=False)
        ps = simulate_paths(ex1, sim)
        capped = capped_exponential(ps, sol_lams)
        frac = float(np.mean(capped == 0.0))
        assert frac == pytest.approx(0.2, abs=4 * math.sqrt(0.16 / 4000))
        w = wealth_recursion(ps, sol_lams, "mmv")
        # crossed paths land above bliss and stay there
        assert np.all((capped == 0.0) == (w[:, -1] >= 1.0))


class TestScheduledJumpSampling:
    def test_atom_draws_follow_the_law(self, ex1):
        sim = SimConfig(n_paths=4000, n_steps=4, seed=11, antithetic=False)
        ps = simulate_paths(ex1, sim)
        row = int(np.flatnonzero(ps.atom_index >= 0)[0])
        draws = ps.increments[:, row, :]
        law = ex1.atoms[0].law
        hits = np.zeros(len(law.masses))
        for i, pt in enumerate(law.points):
            hits[i] = np.mean(np.all(draws == pt[None, :], axis=1))
        assert hits.sum() == 1.0          # every draw is one of the outcomes
        for h, m in zip(hits, law.masses):
            assert h == pytest.approx(m, abs=4 * math.sqrt(m * (1 - m) / 4000))


class TestCompoundPoissonSampling:
    RATE = 3.0
    N = 20_000

    @pytest.fixture(scope="class")
    def paths(self):
        sim = SimConfig(n_paths=self.N, n_steps=4, seed=13, antithetic=False)
        return simulate_paths(split_jump_model(self.RATE), sim)

    @staticmethod
    def jump_counts(paths, seg):
        counts = paths.increments[:, paths.seg_index == seg, 0] / 2.0
        assert np.array_equal(counts, np.round(counts))
        return counts

    def test_path_count_has_poisson_mean_and_variance(self, paths):
        n = self.jump_counts(paths, 0).sum(axis=1)
        mean = self.RATE * 1.0
        assert abs(n.mean() - mean) <= 4 * math.sqrt(mean / self.N)
        # the sample variance of a Poisson count has variance
        # (mean + 2 mean^2) / N to leading order
        assert abs(n.var(ddof=1) - mean) \
            <= 4 * math.sqrt((mean + 2 * mean ** 2) / self.N)

    def test_rows_share_jumps_in_proportion_to_dt(self, paths):
        dt = paths.dt[paths.seg_index == 0]
        assert dt.min() < dt.max()
        per_row = self.jump_counts(paths, 0).sum(axis=0)
        total = per_row.sum()
        share = dt / dt.sum()
        se = np.sqrt(share * (1.0 - share) / total)
        assert np.all(np.abs(per_row / total - share) <= 4 * se)

    def test_rate_zero_segment_gets_no_jumps(self, paths):
        assert np.all(self.jump_counts(paths, 1) == 0.0)


class TestStudy:
    def test_terminal_increment_mean_matches_the_drift(self, ex2,
                                                       ex2_sol_mv):
        sim = SimConfig(n_paths=10_000, n_steps=200, seed=3)
        study = run_wealth_study(ex2, sim, "mv", solution=ex2_sol_mv)
        st = estimate_stats(study.terminal_increment[:, 0], "mean",
                            antithetic=True)
        assert abs(st.estimate - EX2_DRIFT_OF_ID) <= 3 * st.std_error

    def test_study_matches_materialized_paths(self):
        # Odd path counts over two blocks of units, paired and unpaired.
        # Monotone paths cross bliss on examples 1, 2 and 5; example 6's
        # bets are tuned so that no scaled jump reaches 1.
        sims = (SimConfig(n_paths=2 * _BLOCK_UNITS + 1, n_steps=16, seed=7),
                SimConfig(n_paths=_BLOCK_UNITS + 1, n_steps=16, seed=7,
                          antithetic=False))
        for example, atoms_max, crosses in ((1, None, True), (2, None, True),
                                            (5, 40, True), (6, 60, False)):
            model = example_model(example, atoms_max=atoms_max)
            for kind in ("mv", "mmv"):
                sol = solve_schedule(model, kind)
                for sim in sims:
                    study = run_wealth_study(model, sim, kind, solution=sol)
                    ps = simulate_paths(model, sim)
                    w = wealth_recursion(ps, sol, kind)
                    assert np.array_equal(study.terminal_wealth, w[:, -1])
                    assert np.array_equal(study.capped_exponential,
                                          capped_exponential(ps, sol))
                    if kind == "mmv":
                        crossed = study.capped_exponential == 0.0
                        assert np.any(crossed) == crosses
                        assert np.all(w[crossed, -1] >= study.bliss)

    def test_materialization_guard(self, ex2):
        with pytest.raises(InvariantError):
            simulate_paths(ex2, SimConfig(n_paths=200_000, n_steps=2000))


class TestEstimates:
    def test_mean_and_error(self):
        st = estimate_stats([1.0, 2.0, 3.0, 4.0])
        assert st.estimate == 2.5
        assert st.std_error == pytest.approx(
            np.std([1, 2, 3, 4], ddof=1) / 2.0, abs=1e-15)
        assert st.n == 4

    def test_antithetic_pairs_average_first(self):
        st = estimate_stats([1.0, 3.0, 2.0, 2.0], antithetic=True)
        assert st.estimate == 2.0
        assert st.std_error == 0.0

    def test_antithetic_odd_count_uses_complete_pairs(self):
        # pair means 2 and 4; the lone last value 100 is left out
        st = estimate_stats([1.0, 3.0, 4.0, 4.0, 100.0], antithetic=True)
        assert st.estimate == 3.0
        assert st.std_error == pytest.approx(1.0, abs=1e-15)
        assert st.n == 5

    def test_antithetic_needs_two_complete_pairs(self):
        # one mirrored pair is a single draw: no standard error exists
        for values in ([1.0, 3.0], [1.0, 3.0, 7.0]):
            with pytest.raises(InvariantError):
                estimate_stats(values, antithetic=True)
        st = estimate_stats([1.0, 3.0, 3.0, 5.0], antithetic=True)
        assert (st.estimate, st.std_error) == (3.0, 1.0)

    def test_functionals(self):
        assert estimate_stats([1.0, 2.0], "second_moment").estimate == 2.5
        assert estimate_stats([0.5, 1.0, 2.0, 0.0],
                              "prob_ge_one").estimate == 0.5
        assert estimate_stats([2.0, 0.5], "utility_mmv").estimate == 0.4375
        assert estimate_stats([2.0, 0.5], "utility_mv").estimate \
            == pytest.approx(0.1875, abs=1e-15)

    def test_sharpe(self):
        st = estimate_stats([1.0, 2.0, 3.0], "sharpe")
        assert st.estimate == 2.0
        assert st.std_error == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(InvariantError):
            estimate_stats([1.0, 1.0, 1.0], "sharpe")

    def test_errors(self):
        with pytest.raises(InvariantError):
            estimate_stats([1.0])
        with pytest.raises(InvariantError):
            estimate_stats([1.0, 2.0], "median")

    def test_config_validation(self):
        with pytest.raises(InvariantError):
            SimConfig(n_paths=0)
        with pytest.raises(InvariantError):
            SimConfig(n_paths=1, n_steps=0)
        with pytest.raises(InvariantError):
            PathStats(1.0, -0.1, 5)

