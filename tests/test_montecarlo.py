"""Simulation determinism, wealth recursion, and estimators."""
import math
import sys
import threading

import numpy as np
import pytest

from mmvlab import (InvariantError, PathStats, SimConfig, build_model,
                    cumulative_local_utility, estimate_stats, example_model,
                    global_values, run_wealth_study, simulate_paths,
                    solve_schedule, wealth_recursion)
from mmvlab import montecarlo
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


def two_asset_model():
    """Two assets over two segments, the first diffusing: compound-Poisson
    jumps in both, scheduled jumps inside the diffusing segment and at
    its end."""
    return build_model({
        "horizon": 2.0, "dimension": 2,
        "segments": [
            {"t_start": 0.0, "t_end": 0.7, "b_kind": "trunc", "b": [0.1, 0.05],
             "c": [[0.04, 0.01], [0.01, 0.09]],
             "jumps": {"family": "finite_atoms", "masses": [0.8, 0.9, 0.4],
                       "points": [[0.3, -0.2], [-0.25, 0.1], [0.6, 0.5]]}},
            {"t_start": 0.7, "t_end": 2.0, "b_kind": "trunc", "b": [0.02, 0.08],
             "c": [[0.0, 0.0], [0.0, 0.0]],
             "jumps": {"family": "finite_atoms", "masses": [0.5, 0.7],
                       "points": [[0.2, 0.2], [-0.3, -0.1]]}}],
        "atoms": [{"time": 0.3, "points": [[0.5, 0.4], [-0.4, -0.2]], "masses": [0.4, 0.5]},
                  {"time": 0.35, "points": [[-0.2, 0.3]], "masses": [0.6]},
                  {"time": 0.7, "points": [[1.5, 1.2]], "masses": [0.2]},
                  {"time": 1.5, "points": [[0.1, 0.1], [-0.1, 0.05]], "masses": [0.3, 0.3]}],
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
                        assert np.all(w[crossed, -1] >= 1.0)

    def test_materialization_guard(self, ex2):
        with pytest.raises(InvariantError):
            simulate_paths(ex2, SimConfig(n_paths=200_000, n_steps=2000))


class TestExactEngine:
    """The skeleton gives the horizon; the grid only refines the paths."""

    SIMS = (SimConfig(n_paths=2 * _BLOCK_UNITS + 1, seed=7),
            SimConfig(n_paths=_BLOCK_UNITS + 1, seed=7, antithetic=False))

    @pytest.mark.parametrize("build", [
        lambda: example_model(1), lambda: example_model(2),
        lambda: example_model(5, atoms_max=40), lambda: example_model(6, atoms_max=60),
        two_asset_model], ids=["ex1", "ex2", "ex5-40", "ex6-60", "two-assets"])
    def test_terminal_columns_do_not_depend_on_the_step_count(self, build):
        model = build()
        for kind in ("mv", "mmv"):
            sol = solve_schedule(model, kind)
            for sim in self.SIMS:
                study = run_wealth_study(model, sim, kind, solution=sol)
                for steps in (1, 4, 16):
                    ps = simulate_paths(model, SimConfig(sim.n_paths, steps, sim.seed,
                                                         sim.antithetic))
                    w = wealth_recursion(ps, sol, kind)
                    assert w[:, -1].tobytes() == study.terminal_wealth.tobytes()
                    assert capped_exponential(ps, sol).tobytes() \
                        == study.capped_exponential.tobytes()
                    np.testing.assert_allclose(ps.increments.sum(axis=1),
                                               study.terminal_increment, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("build", [lambda: example_model(2), two_asset_model],
                             ids=["ex2", "two-assets"])
    def test_paths_are_a_prefix_of_longer_paths(self, build):
        # a block bridges only the units it keeps; the grid normals come
        # last in its stream, so the kept units draw the same ones
        model = build()
        for antithetic in (True, False):
            short, long = (simulate_paths(model, SimConfig(n, 6, 7, antithetic))
                           for n in (_BLOCK_UNITS + 3, 2 * _BLOCK_UNITS))
            n = short.n_paths
            assert short.levels.tobytes() == long.levels[:n].tobytes()
            assert short.increments.tobytes() == long.increments[:n].tobytes()

    def test_the_study_ignores_the_step_count(self, ex2, ex2_sol_mmv):
        fields = ("terminal_wealth", "capped_exponential", "terminal_increment")
        runs = [run_wealth_study(ex2, SimConfig(600, steps, 3), "mmv", solution=ex2_sol_mmv)
                for steps in (1, 2000)]
        for f in fields:
            assert getattr(runs[0], f).tobytes() == getattr(runs[1], f).tobytes()

    def test_lognormal_moments_of_the_gap(self):
        # G_T = exp(-lam W_T - lam^2 c T / 2 - lam b T) on a pure diffusion
        lam, b, c = 1.5, 0.12, 0.09
        sim = SimConfig(n_paths=20_000, seed=11)
        study = run_wealth_study(pure_diffusion_model(), sim, "mv", solution=[[lam]])
        gap = 1.0 - study.terminal_wealth
        for functional, want in (("mean", math.exp(-lam * b)),
                                 ("second_moment", math.exp(-2.0 * lam * b + lam * lam * c))):
            st = estimate_stats(gap, functional, antithetic=True)
            assert abs(st.estimate - want) <= 4.0 * st.std_error, functional

    @pytest.mark.parametrize("model", ["diffusion", "ex2"])
    def test_bridged_rows_have_the_diffusion_variance(self, model, ex2):
        # with jumps (ex2) the rows are bridged through the jump times too
        m, c = (pure_diffusion_model(), 0.09) if model == "diffusion" else (ex2, 0.04)
        n = 20_000
        ps = simulate_paths(m, SimConfig(n_paths=n, n_steps=8, seed=13, antithetic=False))
        levels = ps.levels[:, :, 0]
        for var, dt in ((levels.var(axis=0, ddof=1), ps.t_end),
                        (np.diff(levels, axis=1, prepend=0.0).var(axis=0, ddof=1), ps.dt)):
            want = c * dt
            assert np.all(np.abs(var - want) <= 4.0 * want * math.sqrt(2.0 / (n - 1)))

    def test_pulls_on_random_small_models(self):
        # one segment with diffusion and Gaussian, exponential-tail or
        # finite-atom jumps, drawn from a fixed seed
        rng = np.random.default_rng(20261019)
        sim = SimConfig(n_paths=20_000, seed=5)
        laws = [lambda: {"family": "gaussian", "mean": float(rng.uniform(-0.1, 0.1)),
                         "variance": float(rng.uniform(0.005, 0.05)),
                         "rate": float(rng.uniform(0.5, 3.0))},
                lambda: {"family": "exp_tails", "c_minus": float(rng.uniform(0.5, 2.0)),
                         "a": float(rng.uniform(4.0, 12.0)),
                         "c_plus": float(rng.uniform(0.5, 2.0)),
                         "b": float(rng.uniform(4.0, 12.0))},
                lambda: {"family": "finite_atoms",
                         "points": rng.uniform(-0.5, 0.8, size=(3, 1)).tolist(),
                         "masses": rng.uniform(0.1, 1.0, size=3).tolist()}]
        for _ in range(2):
            for law in laws:
                model = build_model({"horizon": 1.0, "dimension": 1, "segments": [{
                    "t_start": 0.0, "t_end": 1.0, "b_kind": "trunc",
                    "b": float(rng.uniform(0.05, 0.25)), "c": float(rng.uniform(0.02, 0.1)),
                    "jumps": law()}]})
                for kind in ("mv", "mmv"):
                    sol = solve_schedule(model, kind)
                    gv = global_values(cumulative_local_utility(model, kind, solution=sol))
                    study = run_wealth_study(model, sim, kind, solution=sol)
                    if kind == "mv":
                        st, want = estimate_stats(study.terminal_wealth, "mean", True), gv.mhr2
                    else:
                        z = study.capped_exponential / (1.0 - gv.mhr2)
                        st, want = estimate_stats(z, "mean", True), 1.0
                    assert abs(st.estimate - want) <= 5.0 * st.std_error, (model, kind)


class TestWorkers:
    """Blocks on 1, 2 or 3 worker threads give the same bits."""

    N_PATHS = 4 * _BLOCK_UNITS + 3      # 3 blocks paired, 5 unpaired
    SIMS = (SimConfig(n_paths=N_PATHS, n_steps=16, seed=7),
            SimConfig(n_paths=N_PATHS, n_steps=16, seed=7, antithetic=False))

    @staticmethod
    def on_workers(monkeypatch, n):
        """Run blocks on n workers; returns the set of threads that drew."""
        drew = set()
        make = montecarlo._block_generator

        def generator(seed, block):
            drew.add(threading.get_ident())
            return make(seed, block)

        monkeypatch.setattr(montecarlo, "_worker_count", lambda n_blocks: n)
        monkeypatch.setattr(montecarlo, "_block_generator", generator)
        return drew

    @pytest.mark.parametrize("example, atoms_max", [(2, None), (1, None), (6, 60)])
    def test_study_does_not_depend_on_the_worker_count(self, monkeypatch,
                                                       example, atoms_max):
        model = example_model(example, atoms_max=atoms_max)
        fields = ("terminal_wealth", "capped_exponential", "terminal_increment")
        for kind in ("mv", "mmv"):
            sol = solve_schedule(model, kind)
            for sim in self.SIMS:
                runs = []
                for n in (1, 2, 3):
                    drew = self.on_workers(monkeypatch, n)
                    study = run_wealth_study(model, sim, kind, solution=sol)
                    runs.append([getattr(study, f).tobytes() for f in fields])
                    assert (drew == {threading.get_ident()}) == (n == 1)
                assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("example, atoms_max", [(2, None), (1, None), (5, 40)])
    def test_study_does_not_depend_on_how_blocks_are_grouped(self, monkeypatch,
                                                             example, atoms_max):
        # a study reduces runs of blocks at once; runs of 1, 2 or all
        # blocks, on 1 or 3 workers, give the same bits
        model = example_model(example, atoms_max=atoms_max)
        fields = ("terminal_wealth", "capped_exponential", "terminal_increment")
        for kind in ("mv", "mmv"):
            sol = solve_schedule(model, kind)
            for sim in self.SIMS:
                runs = set()
                for group, n in ((1, 1), (2, 3), (64, 3)):
                    monkeypatch.setattr(montecarlo, "_STUDY_GROUP", group)
                    self.on_workers(monkeypatch, n)
                    study = run_wealth_study(model, sim, kind, solution=sol)
                    runs.add(tuple(getattr(study, f).tobytes() for f in fields))
                assert len(runs) == 1

    def test_wide_skeletons_take_fewer_blocks_per_run(self, monkeypatch):
        # 59 scheduled jumps: a budget of three blocks' values runs the
        # five unpaired blocks as 3 + 2, and the bits stay the same
        model = example_model(6, atoms_max=60)
        sol = solve_schedule(model, "mmv")
        sim = self.SIMS[1]
        want = run_wealth_study(model, sim, "mmv", solution=sol)
        runs = []
        draw = montecarlo._draw_skeleton

        def spy(gens, plan):
            sk = draw(gens, plan)
            runs.append((len(gens), sk.s.size))
            return sk

        monkeypatch.setattr(montecarlo, "_STUDY_VALUES", 3 * _BLOCK_UNITS * 60)
        monkeypatch.setattr(montecarlo, "_draw_skeleton", spy)
        got = run_wealth_study(model, sim, "mmv", solution=sol)
        assert sorted(runs) == [(2, 2 * _BLOCK_UNITS * 59), (3, 3 * _BLOCK_UNITS * 59)]
        assert got.terminal_wealth.tobytes() == want.terminal_wealth.tobytes()

    @pytest.mark.parametrize("example, atoms_max", [(2, None), (6, 60)])
    def test_paths_do_not_depend_on_the_worker_count(self, monkeypatch,
                                                     example, atoms_max):
        model = example_model(example, atoms_max=atoms_max)
        sol = solve_schedule(model, "mmv")
        for sim in self.SIMS:
            runs = []
            for n in (1, 2, 3):
                self.on_workers(monkeypatch, n)
                ps = simulate_paths(model, sim)
                runs.append([ps.increments.tobytes(),
                             wealth_recursion(ps, sol, "mmv").tobytes(),
                             capped_exponential(ps, sol).tobytes()])
            assert runs[0] == runs[1] == runs[2]

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch,
                                                          ex2, ex2_sol_mmv):
        # a block lost or drawn twice by racing workers would leave garbage
        # or a repeated span in the output; bounded in time by the join
        sim = SimConfig(n_paths=12 * _BLOCK_UNITS + 5, n_steps=4, seed=3,
                        antithetic=False)
        fields = ("terminal_wealth", "capped_exponential", "terminal_increment")
        self.on_workers(monkeypatch, 1)
        want = run_wealth_study(ex2, sim, "mmv", solution=ex2_sol_mmv)
        self.on_workers(monkeypatch, 6)
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: got.append(
                run_wealth_study(ex2, sim, "mmv", solution=ex2_sol_mmv)), daemon=True)
            runner.start()
            runner.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        for f in fields:
            assert getattr(got[0], f).tobytes() == getattr(want, f).tobytes()

    def test_one_block_stays_on_the_calling_thread(self, ex2, ex2_sol_mmv):
        drew = set()
        make = montecarlo._block_generator

        def generator(seed, block):
            drew.add(threading.get_ident())
            return make(seed, block)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_block_generator", generator)
            run_wealth_study(ex2, SimConfig(n_paths=2 * _BLOCK_UNITS, n_steps=8),
                             "mmv", solution=ex2_sol_mmv)
        assert drew == {threading.get_ident()}

    def test_a_worker_exception_reaches_the_caller(self, monkeypatch, ex2,
                                                   ex2_sol_mmv):
        self.on_workers(monkeypatch, 2)
        raised_on = []

        def sample(law, gen, size):
            raised_on.append(threading.get_ident())
            raise RuntimeError("sample failed")

        monkeypatch.setattr(type(ex2.segments[0].chars.jumps), "sample", sample)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="sample failed"):
            run_wealth_study(ex2, SimConfig(n_paths=self.N_PATHS, n_steps=16),
                             "mmv", solution=ex2_sol_mmv)
        assert threading.active_count() == before
        assert raised_on and threading.get_ident() not in raised_on

    def test_worker_count_stays_under_the_cap(self, monkeypatch):
        # counts only: no thread is started
        cap = montecarlo._MAX_WORKERS
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                            lambda pid: set(range(64)), raising=False)
        assert montecarlo._worker_count(1000) == cap
        assert montecarlo._worker_count(2) == min(2, cap)
        assert montecarlo._worker_count(1) == 1
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 64)
        assert montecarlo._worker_count(1000) == cap


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

    @pytest.mark.parametrize("field, value, message", [
        ("n_paths", 4.0, "n_paths must be an integer"),
        ("n_paths", True, "n_paths must be an integer"),
        ("n_paths", "4", "n_paths must be an integer"),
        ("n_steps", True, "n_steps must be an integer"),
        ("n_steps", 2.0, "n_steps must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", np.True_, "seed must be an integer"),
        ("seed", None, "seed must be an integer"),
        ("antithetic", 1, "antithetic must be a bool"),
        ("antithetic", "yes", "antithetic must be a bool"),
    ])
    def test_config_types_are_checked_at_construction(self, field, value, message):
        # before, n_paths=4.0 raised a TypeError inside simulate_paths,
        # n_steps=True simulated one step and seed=1.5 failed at the draw
        with pytest.raises(InvariantError, match=f"^{message}$"):
            SimConfig(**{"n_paths": 4, field: value})

    def test_config_takes_numpy_integers_and_bools(self):
        sim = SimConfig(np.int64(4), np.int32(2), np.uint8(7), np.bool_(False))
        assert (sim.n_paths, sim.n_steps, sim.seed, bool(sim.antithetic)) == (4, 2, 7, False)

