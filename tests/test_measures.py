"""Jump-measure families: closed-form moments, tail masses, transforms."""
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mmvlab
from mmvlab import (ExpTails1D, FiniteAtoms, Gaussian1D, InvariantError, LocalCharacteristics,
                    TabulatedDensity1D, UnsupportedMeasure, merge_atoms)
from mmvlab._quad import Pieces
from mmvlab.measures import (CappedMeasure, ExpYieldMeasure, _pair_key, _sorted_unique,
                             merge_rows)
from mmvlab.model import small_jump_mean

ident = Pieces((), [[0.0, 1.0, 0.0]], ())
square = Pieces((), [[0.0, 0.0, 1.0]], ())


class TestFiniteAtoms:
    LAW = FiniteAtoms(np.array([[-0.5], [0.25], [1.0]]),
                      np.array([0.2, 0.5, 0.3]))

    def test_integrate_is_exact(self):
        # atoms are integrated as exact sums over their points: the mean of
        # the truncation h keeps the outcome on the unit boundary
        chars = LocalCharacteristics(np.zeros(1), np.zeros((1, 1)), self.LAW)
        want = 0.2 * -0.5 + 0.5 * 0.25 + 0.3 * 1.0
        assert small_jump_mean(chars)[0] == pytest.approx(want, abs=1e-16)

    def test_integrals_are_refused_with_a_reason(self):
        # atoms are summed over their points, never integrated: both entry
        # points of the integral protocol say so, in one and two dimensions
        plane = FiniteAtoms(np.array([[0.5, -0.5]]), np.array([0.2]))
        for law in (self.LAW, plane):
            with pytest.raises(UnsupportedMeasure, match="finite atoms take no integrand"):
                law.integrate(square)
            with pytest.raises(UnsupportedMeasure, match="finite atoms take no integrand"):
                law.integrate_block((ident, square))

    def test_mass_scaled_ge_boundary(self):
        # the point 0.25 sits exactly on the level 1 boundary at lam = 4
        assert self.LAW.mass_scaled_ge(4.0, 1.0) == pytest.approx(0.8)
        assert self.LAW.mass_scaled_ge(4.0, 1.0, strict=True) \
            == pytest.approx(0.3)
        assert self.LAW.mass_scaled_ge(-1.0, 0.4) == pytest.approx(0.2)

    def test_zero_direction_sees_the_origin(self):
        assert self.LAW.mass_scaled_ge(0.0, 1.0) == 0.0
        assert self.LAW.mass_scaled_ge(0.0, -1.0) == pytest.approx(1.0)

    def test_bounds_and_scale(self):
        assert self.LAW.support_scale() == 1.0
        assert self.LAW.moment_sup_order(1) == math.inf

    def test_validation(self):
        with pytest.raises(InvariantError):
            FiniteAtoms(np.array([[0.1], [0.2]]), np.array([0.1]))
        with pytest.raises(InvariantError):
            FiniteAtoms(np.array([[0.1]]), np.array([-0.1]))

    def test_nan_mass_is_rejected(self):
        with pytest.raises(InvariantError):
            FiniteAtoms(np.array([[0.1], [0.2]]), np.array([0.5, math.nan]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_is_rejected(self, bad):
        with pytest.raises(InvariantError):
            FiniteAtoms(np.array([[bad], [0.5]]), np.array([0.5, 0.5]))
        with pytest.raises(InvariantError):
            FiniteAtoms(np.array([[0.5, 0.0], [0.0, bad]]), np.array([0.5, 0.5]))

    def test_two_dimensional_direction(self):
        law = FiniteAtoms(np.array([[1.0, 0.0], [0.0, 1.0]]),
                          np.array([0.3, 0.4]))
        assert law.mass_scaled_ge([1.0, 0.0], 0.5) == pytest.approx(0.3)

    def test_sample_frequencies(self, rng):
        draws = self.LAW.sample(rng, 20000)
        freq = np.mean(np.isclose(draws, 1.0))
        assert freq == pytest.approx(0.3, abs=4 * math.sqrt(0.21 / 20000))


class TestGaussian:
    G = Gaussian1D(mean=0.1, variance=0.04, rate=0.7)

    def test_moments(self):
        assert self.G.total_mass() == 0.7
        assert self.G.integrate(ident) == pytest.approx(0.07, abs=1e-12)
        want = 0.7 * (0.04 + 0.01)
        assert self.G.integrate(square) == pytest.approx(want, abs=1e-12)

    def test_tail_mass_matches_erf(self):
        t = 0.3
        z = (t - 0.1) / 0.2
        want = 0.7 * 0.5 * math.erfc(z / math.sqrt(2.0))
        assert self.G.mass_scaled_ge(1.0, t) == pytest.approx(want, abs=1e-14)
        assert self.G.mass_scaled_ge(-1.0, -t) \
            == pytest.approx(0.7 - want, abs=1e-14)

    @pytest.mark.parametrize("t", [3.0, 9.0, 20.0])
    def test_far_tails_keep_their_relative_precision(self, t):
        # 1 - Phi(z) taken from erf reads 0.0 beyond z of about 8.3; rounding
        # z/sqrt(2) alone moves the tail by up to about z^2 * 2.2e-16 relative
        law = Gaussian1D(0.0, 1.0, 1.0)
        with mpmath.workdps(40):
            want = float(mpmath.erfc(mpmath.mpf(t) / mpmath.sqrt(2)) / 2)
        assert law.mass_scaled_ge(1.0, t) == pytest.approx(want, rel=1e-13, abs=0.0)
        assert law.mass_scaled_ge(-1.0, t) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_breakpoints_do_not_change_the_integral(self):
        plain = self.G.integrate(square)
        split = self.G.integrate(Pieces((-0.2, 0.0, 0.3), [[0.0, 0.0, 1.0]] * 4,
                                        (0.04, 0.0, 0.09)))
        assert split == pytest.approx(plain, abs=1e-11)

    def test_validation(self):
        with pytest.raises(InvariantError):
            Gaussian1D(0.0, 0.0, 1.0)
        with pytest.raises(InvariantError):
            Gaussian1D(0.0, 1.0, -1.0)

    @pytest.mark.parametrize("mean,variance,rate", [
        (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (0.0, math.nan, 1.0),
        (0.0, math.inf, 1.0), (0.0, 1.0, math.nan), (0.0, 1.0, math.inf)])
    def test_non_finite_parameters_are_rejected(self, mean, variance, rate):
        with pytest.raises(InvariantError):
            Gaussian1D(mean, variance, rate)

    def test_zero_rate_integrates_to_zero(self):
        assert Gaussian1D(0.0, 1.0, 0.0).integrate(square) == 0.0


class TestExpTails:
    # density 1.5 e^{4x} on x < 0 plus 0.5 e^{-2x} on x > 0
    M = ExpTails1D(c_minus=1.5, a=4.0, c_plus=0.5, b=2.0)

    def test_closed_form_moments(self):
        assert self.M.total_mass() == pytest.approx(1.5 / 4 + 0.5 / 2,
                                                    abs=1e-14)
        mean = 0.5 / 4 - 1.5 / 16
        assert self.M.integrate(ident) == pytest.approx(mean, abs=1e-12)
        second = 2 * 0.5 / 8 + 2 * 1.5 / 64
        assert self.M.integrate(square) == pytest.approx(second, abs=1e-12)

    def test_tail_mass(self):
        want = 0.25 * math.exp(-2.0 * 0.7)
        assert self.M.mass_scaled_ge(1.0, 0.7) == pytest.approx(want,
                                                                abs=1e-14)
        want_left = 0.375 * math.exp(-4.0 * 0.3)
        assert self.M.mass_scaled_ge(-1.0, 0.3) == pytest.approx(want_left,
                                                                 abs=1e-14)

    @pytest.mark.parametrize("t", [3.0, -3.0, 9.0, -9.0, 20.0, -20.0])
    def test_far_tails_keep_their_relative_precision(self, t):
        # mass of {x >= t} and of {x <= -t}; a lower tail taken as the
        # total less the rest read 0.0 once below the total's rounding
        with mpmath.workdps(40):
            cm, a, cp, b = (mpmath.mpf(v) for v in (1.5, 4.0, 0.5, 2.0))

            def upper(s):
                s = mpmath.mpf(s)
                if s >= 0:
                    return cp / b * mpmath.exp(-b * s)
                return cp / b + cm / a * -mpmath.expm1(a * s)

            def lower(s):
                s = mpmath.mpf(s)
                if s <= 0:
                    return cm / a * mpmath.exp(a * s)
                return cm / a + cp / b * -mpmath.expm1(-b * s)

            want_upper, want_lower = float(upper(t)), float(lower(-t))
        assert self.M.mass_scaled_ge(1.0, t) == pytest.approx(want_upper, rel=1e-13, abs=0.0)
        assert self.M.mass_scaled_ge(-1.0, t) == pytest.approx(want_lower, rel=1e-13, abs=0.0)

    def test_far_lower_tail_does_not_cancel(self):
        assert ExpTails1D(1.0, 1.0, 1.0, 1.0).mass_scaled_ge(-1.0, 40.0) \
            == pytest.approx(math.exp(-40.0), rel=1e-15, abs=0.0)

    def test_all_polynomial_moments_exist(self):
        assert self.M.moment_sup_order(1) == math.inf
        assert self.M.moment_sup_order(-1) == math.inf

    def test_validation(self):
        with pytest.raises(InvariantError):
            ExpTails1D(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(InvariantError):
            ExpTails1D(-1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_parameters_are_rejected(self, slot, bad):
        params = [1.5, 4.0, 0.5, 2.0]
        params[slot] = bad
        with pytest.raises(InvariantError):
            ExpTails1D(*params)


class TestTabulated:
    T = TabulatedDensity1D(np.linspace(-1.0, 1.0, 201),
                           np.full(201, 0.5))

    def test_uniform_density_mass_and_mean(self):
        assert self.T.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert self.T.integrate(ident) == pytest.approx(0.0, abs=1e-12)
        assert self.T.integrate(square) == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_tail_mass_inserts_the_threshold(self):
        # 0.3 is off the grid; exact mass of [0.3, 1] under density 1/2
        assert self.T.mass_scaled_ge(1.0, 0.3) == pytest.approx(0.35,
                                                                abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvariantError):
            TabulatedDensity1D(np.array([0.0, 0.0, 1.0]), np.ones(3))
        with pytest.raises(InvariantError):
            TabulatedDensity1D(np.array([0.0, 1.0]), np.array([1.0, -1.0]))

    @pytest.mark.parametrize("grid,density", [
        ([0.0, math.nan, 1.0], [1.0, 1.0, 1.0]),
        ([0.0, 0.5, math.inf], [1.0, 1.0, 1.0]),
        ([0.0, 0.5, 1.0], [1.0, math.nan, 1.0]),
        ([0.0, 0.5, 1.0], [1.0, math.inf, 1.0])])
    def test_non_finite_values_are_rejected(self, grid, density):
        with pytest.raises(InvariantError):
            TabulatedDensity1D(np.array(grid), np.array(density))

    def test_sample_within_bounds(self, rng):
        draws = self.T.sample(rng, 1000)
        assert np.all(draws >= -1.0) and np.all(draws <= 1.0)

    @staticmethod
    def _sawtooth():
        # 41 nodes, the density 0 at every other one: wide rising cells
        # and narrow falling ones, where a law uniform within each cell
        # has its mass too far left
        rng = np.random.default_rng(41)
        widths = np.where(np.arange(40) % 2 == 0, rng.uniform(0.2, 0.4, 40),
                          rng.uniform(0.02, 0.06, 40))
        return TabulatedDensity1D(np.concatenate(([-1.0], -1.0 + np.cumsum(widths))),
                                  np.where(np.arange(41) % 2 == 1, rng.uniform(0.5, 2.0, 41), 0.0))

    @pytest.mark.parametrize("law", ["ramp", "sawtooth"])
    def test_draws_have_the_mean_of_the_linear_density(self, law):
        # draws follow the density linear between the nodes that the
        # integrals read: on grid [0, 1] with density [0, 2] the mean is
        # 2/3, not the 1/2 of a density constant on the cell
        law = (TabulatedDensity1D(np.array([0.0, 1.0]), np.array([0.0, 2.0])) if law == "ramp"
               else self._sawtooth())
        u, v = law.grid[:-1], law.grid[1:]
        ru, rv = law.density[:-1], law.density[1:]
        mean = (np.sum((v - u) / 6.0 * (u * (2.0 * ru + rv) + v * (ru + 2.0 * rv)))
                / np.sum((v - u) * (ru + rv) / 2.0))
        draws = law.sample(np.random.default_rng(7), 200_000)
        assert abs(draws.mean() - mean) <= 5.0 * draws.std() / math.sqrt(draws.size)


class TestExpYield:
    BASE = ExpTails1D(c_minus=1.0, a=4.0, c_plus=1.0, b=1.0)
    Y = ExpYieldMeasure(BASE)

    def test_mass_preserved(self):
        assert self.Y.total_mass() == pytest.approx(self.BASE.total_mass(),
                                                    abs=1e-14)

    def test_tail_mass_is_the_log_level(self):
        lam = 1.1080932585715102
        want = self.BASE.mass_scaled_ge(1.0, math.log1p(1.0 / lam))
        assert self.Y.mass_scaled_ge(lam, 1.0) == pytest.approx(want,
                                                                abs=1e-14)
        # unit tail coefficient and rate make this exactly lam/(1+lam)
        assert self.Y.mass_scaled_ge(lam, 1.0) \
            == pytest.approx(lam / (1.0 + lam), abs=1e-14)

    def test_whole_support_below_minus_one(self):
        assert self.Y.mass_scaled_ge(1.0, -2.0) \
            == pytest.approx(self.Y.total_mass(), abs=1e-14)
        assert self.Y.mass_scaled_ge(-1.0, 2.0) == 0.0

    @pytest.mark.parametrize("base", [
        FiniteAtoms(np.array([[0.5], [-0.5]]), np.array([0.2, 0.3])),
        ExpYieldMeasure(BASE), CappedMeasure(BASE, 1.0)], ids=["atoms", "yield", "capped"])
    def test_only_density_laws_are_a_base(self, base):
        # atoms map to atoms (exp_transform); the images have no integral here
        with pytest.raises(UnsupportedMeasure):
            ExpYieldMeasure(base)

    def test_moment_orders(self):
        assert self.Y.moment_sup_order(-1) == math.inf
        assert self.Y.moment_sup_order(1) == 1.0
        g = ExpYieldMeasure(Gaussian1D(0.0, 0.01, 1.0))
        assert g.moment_sup_order(1) == math.inf

    def test_capped_mean_closed_form(self):
        # E[min(e^X - 1, 1)] with tails e^{4x} / e^{-x}:
        # left integral -1/20, right log(2) - 1/2 below the kink, 1/2 above
        got = self.Y.integrate(Pieces((1.0,), [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], (1.0,)))
        assert got == pytest.approx(math.log(2.0) - 0.05, abs=1e-9)


class TestCapped:
    BASE = Gaussian1D(mean=0.0, variance=1.0, rate=1.0)
    C = CappedMeasure(BASE, cap=0.5)

    def test_mass_preserved_and_no_mass_above_cap(self):
        assert self.C.total_mass() == 1.0
        assert self.C.mass_scaled_ge(1.0, 0.6) == 0.0
        assert self.C.mass_scaled_ge(1.0, 0.5, strict=True) == 0.0
        # everything at or above the cap collapses onto it
        want = self.BASE.mass_scaled_ge(1.0, 0.5)
        assert self.C.mass_scaled_ge(1.0, 0.5) == pytest.approx(want,
                                                                abs=1e-14)

    def test_first_moment(self):
        # E[min(Z, c)] = -(phi(c) - c (1 - Phi(c))) for a standard normal
        c = 0.5
        phi = math.exp(-c * c / 2.0) / math.sqrt(2.0 * math.pi)
        upper = 0.5 * math.erfc(c / math.sqrt(2.0))
        want = -(phi - c * upper)
        assert self.C.integrate(ident) == pytest.approx(want, abs=1e-9)

    def test_moment_orders(self):
        assert self.C.moment_sup_order(1) == math.inf
        assert self.C.moment_sup_order(-1) \
            == self.BASE.moment_sup_order(-1)

    @pytest.mark.parametrize("cap", [math.nan, math.inf])
    def test_non_finite_cap_is_rejected(self, cap):
        with pytest.raises(InvariantError):
            CappedMeasure(self.BASE, cap=cap)

    def test_sample_respects_cap(self, rng):
        draws = self.C.sample(rng, 2000)
        assert np.max(draws) <= 0.5


def test_merge_atoms_combines_exact_duplicates():
    merged = merge_atoms(np.array([[0.25], [0.25], [1.0], [0.5]]),
                         np.array([0.1, 0.2, 0.0, 0.3]))
    rows = sorted((float(p[0]), float(m))
                  for p, m in zip(merged.points, merged.masses))
    assert len(rows) == 2
    assert rows[0][0] == 0.25
    assert rows[0][1] == pytest.approx(0.3, abs=1e-15)
    assert rows[1] == (0.5, 0.3)


_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                1.0, -1.0]


@given(st.lists(st.tuples(st.one_of(st.integers(0, 3), st.integers(0, 2 ** 53 - 1)),
                          st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False))),
                max_size=40),
       st.booleans())
def test_a_stable_complex_key_sort_is_a_lexicographic_sort(pairs, presorted):
    # numpy orders complex values by real, then imaginary part, and a
    # stable sort keeps ties in input order: for majors exact as floats
    # and minors with ties, signed zeros, infinities and subnormals, the
    # permutation is the lexicographic one
    major = np.array([p[0] for p in pairs], dtype=np.int64)
    minor = np.array([p[1] for p in pairs], dtype=float)
    if presorted:
        major = np.sort(major)
    got = np.argsort(_pair_key(major, minor), kind="stable")
    assert got.tolist() == np.lexsort((minor, major)).tolist()


def _merge_rows_by_lexsort(points, masses, row):
    """`merge_rows` as it sorted (row, point) with np.lexsort: the
    reference the complex-key sort must match bit for bit."""
    n = masses.size
    order = np.lexsort((*points.T[::-1], row))
    ps, rs = points[order], row[order]
    dup = (rs[1:] == rs[:-1]) & (ps[1:] == ps[:-1]).all(axis=1)
    if dup.any():
        group = np.empty(n, dtype=np.intp)
        group[order] = np.cumsum(np.concatenate(([True], ~dup))) - 1
        first = order[np.concatenate(([True], ~dup))]
        masses = np.bincount(group, weights=masses)
        place = np.argsort(first)
        points, masses, row = points[first[place]], masses[place], row[first[place]]
    keep = masses > 0.0
    return points[keep], masses[keep], row[keep]


def _atom_law_table(gen, n_laws, grid=None):
    """Outcomes, masses and rows of n_laws 1-d laws of 3-6 outcomes, one
    loss and one gain each, as the atom_laws benchmark draws them;
    outcomes rounded to a grid coincide within a law."""
    points, masses, row = [], [], []
    for i in range(n_laws):
        n = int(gen.integers(3, 7))
        signs = np.concatenate([[-1.0, 1.0], gen.choice([-1.0, 1.0], size=n - 2)])
        x = signs * np.where(signs < 0, gen.uniform(0.05, 1.6, n), gen.uniform(0.05, 2.5, n))
        m = gen.uniform(0.05, 0.4, n)
        points.append(x if grid is None else np.round(x / grid) * grid)
        masses.append(m * gen.uniform(0.3, 1.0) / m.sum())
        row.append(np.full(n, i))
    return np.concatenate(points)[:, None], np.concatenate(masses), np.concatenate(row)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_merge_rows_keeps_the_lexicographic_bits(dim):
    # coincident points, -0.0 beside +0.0, zero masses and repeated rows
    gen = np.random.default_rng(29 + dim)
    for _ in range(20):
        n = int(gen.integers(1, 40))
        points = gen.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=(n, dim))
        masses = gen.choice([0.0, 0.1, 0.25, 1e-300], size=n)
        row = np.sort(gen.integers(0, 4, size=n))
        got, want = merge_rows(points, masses, row), _merge_rows_by_lexsort(points, masses, row)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("grid", [None, 0.1])
def test_merge_rows_keeps_the_bits_of_a_benchmark_table(grid):
    points, masses, row = _atom_law_table(np.random.default_rng(1000), 1000, grid)
    got, want = merge_rows(points, masses, row), _merge_rows_by_lexsort(points, masses, row)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert grid is None or got[1].size < masses.size        # the grid merged some


def test_sorted_unique_is_np_unique(rng):
    values = np.concatenate([rng.integers(-5, 5, size=200) / 4.0, [0.0, -0.0, 1e-300]])
    got = _sorted_unique(values)
    assert got.tobytes() == np.unique(values).tobytes()


def test_no_run_imports_numpy_ma():
    # np.unique imports numpy.ma (about 12 ms and 1 MB) on first use; a
    # tabulated law with breakpoints inside its grid, and a scheduled
    # jump inside a segment of the simulation grid, used to call it
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from mmvlab import (SimConfig, build_model, check_instantaneous_no_arbitrage,
                            compare_mv_mmv, density_diagnostics, mv_signed_measure,
                            run_wealth_study, solve_schedule)
        seg = {"t_start": 0.0, "t_end": 1.0, "b_kind": "trunc", "b": 0.1, "c": 0.04}
        tab = build_model({"horizon": 1.0, "dimension": 1, "segments": [dict(seg, jumps={
            "family": "tabulated", "x": np.linspace(-3.0, 3.0, 61).tolist(),
            "density": [0.1] * 61, "quadrature": "trapezoid"})]})
        for kind in ("mv", "mmv"):
            solve_schedule(tab, kind)
        density_diagnostics(tab)
        mv_signed_measure(tab)
        compare_mv_mmv(tab)
        check_instantaneous_no_arbitrage(tab)
        inner = build_model({"horizon": 1.0, "dimension": 1, "segments": [seg], "atoms": [
            {"time": 0.37, "points": [[-0.5], [0.5]], "masses": [0.4, 0.6]}]})
        run_wealth_study(inner, SimConfig(n_paths=8, n_steps=10, seed=1), "mmv")
        print("numpy.ma" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(mmvlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
