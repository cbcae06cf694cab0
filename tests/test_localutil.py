"""Utility shapes, their variations, and the no-free-lunch scan."""
import itertools
import math

import numpy as np
import pytest

from mmvlab import (FiniteAtoms, Gaussian1D, InvariantError, LocalCharacteristics,
                    MarketModel, ScheduledJumps, Segment, TabulatedDensity1D, build_model,
                    check_instantaneous_no_arbitrage, example_model, foc_residual,
                    local_utility, maximize_local_utility, solve_schedule, utility)
from mmvlab.model import small_jump_mean
from mmvlab.drift import _kinked_pieces
from mmvlab.localutil import (_cone_ray, _free_lunch, _rows_from_chars, _rows_from_table,
                              _slope_spec, _utility_spec, asymptotic_slope, utility_slope)

import properties


def test_utility_values_and_vectorization():
    u = np.array([0.0, 0.5, 1.0, 2.0, -1.0])
    assert utility("mv", u) == pytest.approx([0.0, 0.375, 0.5, 0.0, -1.5])
    assert utility("mmv", u) == pytest.approx([0.0, 0.375, 0.5, 0.5, -1.5])
    assert utility("mv", 2.0) == pytest.approx(0.0)


def test_utility_slopes():
    u = np.array([0.0, 0.5, 1.0, 2.0])
    assert utility_slope("mv", u) == pytest.approx([1.0, 0.5, 0.0, -1.0])
    # the monotone slope vanishes at bliss, not just beyond it
    assert utility_slope("mmv", u) == pytest.approx([1.0, 0.5, 0.0, 0.0])


def test_monotone_dominates_quadratic_pointwise():
    u = np.linspace(-3.0, 3.0, 601)
    assert np.all(utility("mmv", u) >= utility("mv", u))
    assert np.max(utility("mmv", u)) <= 0.5


def test_local_utility_concavity():
    assert properties.check_concavity(n_triples=1000, seed=11) >= -1e-9


def _two_asset_chars():
    # outcomes past the unit box, at the bliss point of lam and inside it
    return LocalCharacteristics(
        np.array([0.1, -0.05]), np.array([[0.04, 0.01], [0.01, 0.09]]),
        FiniteAtoms(np.array([[1.5, -0.25], [0.5, 0.5], [-0.75, 0.25]]),
                    np.array([0.25, 0.5, 0.125])))


def test_utility_variation_expansion():
    # several-dimensional atoms are summed by the row evaluator: b . lam
    # - lam' c lam / 2 + sum m (g(lam . x) - lam . h(x)), h cutting 1.5
    chars = _two_asset_chars()
    lam = np.array([1.5, 0.5])
    rows = _rows_from_chars(chars)
    x, m = chars.jumps.points, chars.jumps.masses
    h = np.where(np.abs(x) <= 1.0, x, 0.0)
    for kind in ("mv", "mmv"):
        want = (chars.b_trunc @ lam - 0.5 * lam @ chars.cov @ lam
                + m @ (utility(kind, x @ lam) - h @ lam))
        assert rows.value(lam[None], kind)[0] == pytest.approx(want, rel=1e-15)
        assert local_utility(lam, chars, kind) == rows.value(lam[None], kind)[0]
    # the monotone kind freezes the 1.5 outcome past its bliss point
    assert rows.value(lam[None], "mmv")[0] > rows.value(lam[None], "mv")[0]
    # in one dimension: kinks at -1, the bliss point and 1; g(2x) - 2h(x)
    # is -2x^2 inside, 2x - 2x^2 outside below bliss, 1/2 - 2h past it
    spec = _utility_spec(2.0, "mmv")
    assert spec[3:] == (2.0, -4.0)
    one = _kinked_pieces(2.0, [spec])[0]
    assert one.edges == (-1.0, 0.5, 1.0)
    assert one.coef == ((0.0, 2.0, -2.0), (0.0, 0.0, -2.0),
                        (0.5, -2.0, 0.0), (0.5, 0.0, 0.0))
    assert one.at == (-2.0, -0.5, -1.5)
    flat = _kinked_pieces(0.0, [_utility_spec(0.0, "mmv")])[0]
    assert not any(map(any, flat.coef))


def test_slope_variation_structure():
    # the row evaluator's residual is the gradient b - c lam + sum m
    # (x g'(lam . x) - h(x)), and the table's rows sum a scheduled jump
    # as its own view's characteristics do, bit for bit
    chars = _two_asset_chars()
    lam = np.array([1.5, 0.5])
    x, m = chars.jumps.points, chars.jumps.masses
    h = np.where(np.abs(x) <= 1.0, x, 0.0)
    for kind in ("mv", "mmv"):
        got = _rows_from_chars(chars).residual(lam[None], kind)[0]
        want = (chars.b_trunc - chars.cov @ lam
                + m @ (x * utility_slope(kind, x @ lam)[:, None] - h))
        assert got == pytest.approx(want, rel=1e-14)
    # the plain utility is quadratic, so central differences are exact
    # to rounding; the monotone one has a kink at the (0.5, 0.5) outcome
    got = _rows_from_chars(chars).residual(lam[None], "mv")[0]
    for i, e in enumerate(1e-6 * np.eye(2)):
        fd = (local_utility(lam + e, chars, "mv") - local_utility(lam - e, chars, "mv")) / 2e-6
        assert fd == pytest.approx(got[i], abs=1e-8)
    table = properties.jump_table([(x, m), (-x, m)], [0.5, 1.0])
    lams = np.array([lam, -lam])
    rows = _rows_from_table(table)
    for t, one in enumerate(rows.alone()):
        alone = _rows_from_chars(table[t].chars)
        for got, want in zip((one.b, one.c, one.x, one.m, one.h, one.row),
                             (alone.b, alone.c, alone.x, alone.m, alone.h, alone.row)):
            assert got.tobytes() == want.tobytes()
        assert (rows.residual(lams, "mmv")[t].tolist()
                == alone.residual(lams[t:t + 1], "mmv")[0].tolist())
    # x g'(0) - h(x) is x outside the unit interval and 0 inside
    assert _slope_spec(0.5, "mv")[3:] == (1.0, -1.0)
    linear = _kinked_pieces(0.0, [_slope_spec(0.0, "mv")])[0]
    assert linear.coef == ((0.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def test_monotone_value_dominates_quadratic_on_random_laws():
    gen = np.random.default_rng(23)
    for _ in range(40):
        chars = properties.random_atom_chars(gen)
        lam = float(gen.uniform(-2.0, 2.0))
        assert local_utility(lam, chars, "mmv") \
            >= local_utility(lam, chars, "mv") - 1e-12
        v_mv = maximize_local_utility(chars, "mv").value
        v_mmv = maximize_local_utility(chars, "mmv").value
        assert v_mmv >= v_mv - 1e-10


def test_asymptotic_slope_against_diffusion():
    chars = LocalCharacteristics(np.array([0.3]), np.array([[0.1]]), None)
    assert asymptotic_slope(1.0, chars) == -math.inf


def test_asymptotic_slope_against_opposing_jumps():
    law = FiniteAtoms(np.array([[-0.5], [0.2]]), np.array([0.1, 0.2]))
    chars = LocalCharacteristics(np.array([0.3]), np.zeros((1, 1)), law)
    assert asymptotic_slope(1.0, chars) == -math.inf
    assert asymptotic_slope(-1.0, chars) == -math.inf


def test_asymptotic_slope_pure_drift():
    bare = LocalCharacteristics(np.array([0.3]), np.zeros((1, 1)), None)
    assert asymptotic_slope(1.0, bare) == 0.3
    law = FiniteAtoms(np.array([[0.2]]), np.array([0.4]))
    chars = LocalCharacteristics(np.array([0.3]), np.zeros((1, 1)), law)
    # jumps along the ray survive; only the small-jump mean is subtracted
    assert asymptotic_slope(1.0, chars) == pytest.approx(0.22, abs=1e-15)


_DIRECTION_CHARS = {
    "gaussian": LocalCharacteristics(np.array([0.1]), np.array([[0.04]]),
                                     Gaussian1D(0.02, 0.01, 1.0)),
    "tabulated": LocalCharacteristics(np.array([0.1]), np.array([[0.04]]), TabulatedDensity1D(
        np.linspace(-0.5, 0.5, 11), np.exp(-8.0 * np.linspace(-0.5, 0.5, 11) ** 2))),
    "atoms": LocalCharacteristics(np.array([0.1]), np.array([[0.04]]),
                                  FiniteAtoms(np.array([[-0.2], [0.3]]), np.array([0.5, 0.5]))),
    "atoms_2d": LocalCharacteristics(np.array([0.1, 0.0]), 0.04 * np.eye(2),
                                     FiniteAtoms(np.array([[-0.2, 0.1], [0.3, -0.1]]),
                                                 np.array([0.5, 0.5]))),
    "jump_free": LocalCharacteristics(np.array([0.1]), np.array([[0.04]]), None),
}


@pytest.mark.parametrize("name", sorted(_DIRECTION_CHARS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_directions_are_rejected(name, bad):
    # before, local_utility(nan) raised NonIntegrable with a RuntimeWarning
    # on a Gaussian law and returned nan on a jump-free time point
    chars = _DIRECTION_CHARS[name]
    lam = np.full(chars.dim, 0.5)
    lam[-1] = bad
    for call in (lambda: local_utility(lam, chars, "mv"),
                 lambda: local_utility(lam, chars, "mmv"),
                 lambda: foc_residual(lam, chars, "mmv"),
                 lambda: asymptotic_slope(lam, chars)):
        with pytest.raises(InvariantError, match="^direction must be finite$"):
            call()
    assert math.isfinite(local_utility(np.full(chars.dim, 0.5), chars, "mv"))


def test_no_arbitrage_holds_on_the_examples(ex1, ex2, ex3, ex4):
    for model in (ex1, ex2, ex3, ex4):
        report = check_instantaneous_no_arbitrage(model)
        assert report.holds
        assert report.witness_direction is None
        assert report.atom_violations == ()


def test_no_arbitrage_flags_a_pure_drift_segment():
    model = build_model({
        "horizon": 1.0, "dimension": 1,
        "segments": [{"t_start": 0.0, "t_end": 1.0, "b_kind": "trunc",
                      "b": [0.2], "c": [[0.0]]}],
    })
    report = check_instantaneous_no_arbitrage(model)
    assert not report.holds
    assert report.witness_direction == pytest.approx([1.0])
    assert report.witness_time == 0.0


def test_no_arbitrage_flags_a_one_sided_atom():
    model = build_model({
        "horizon": 1.0, "dimension": 1,
        "segments": [{"t_start": 0.0, "t_end": 1.0, "b_kind": "trunc",
                      "b": [0.0], "c": [[0.04]]}],
        "atoms": [{"time": 0.5,
                   "points": [[0.5], [1.0]], "masses": [0.2, 0.3]}],
    })
    report = check_instantaneous_no_arbitrage(model)
    assert not report.holds
    assert report.witness_direction is None      # the segment is clean
    assert len(report.atom_violations) == 1
    t, w = report.atom_violations[0]
    assert t == 0.5
    pts = model.atoms[0].law.points
    assert np.all(pts @ w >= -1e-9)
    assert np.max(pts @ w) > 1e-9


def test_the_scan_reads_scheduled_jumps_from_the_table(monkeypatch):
    # two-sided, one-sided, and one-sided once its zero-mass loss is
    # ignored; the scan slices the table and builds no JumpAtom view
    laws = [([[-0.5], [0.5]], [0.5, 0.5]), ([[0.5], [1.0]], [0.2, 0.3]),
            ([[-1.0], [1.0]], [0.0, 0.5])]
    chars = LocalCharacteristics(np.zeros(1), 0.04 * np.eye(1), None)
    model = MarketModel(1.0, 1, (Segment(0.0, 1.0, chars),),
                        properties.jump_table(laws, [0.2, 0.5, 0.7]))

    def no_view(self, t):
        raise AssertionError("a JumpAtom view was built")

    monkeypatch.setattr(ScheduledJumps, "__getitem__", no_view)
    report = check_instantaneous_no_arbitrage(model)
    assert [t for t, _ in report.atom_violations] == [0.5, 0.7]
    for _, w in report.atom_violations:
        assert w == pytest.approx([1.0])


# ---------------------------------------------------------------------------
# the no-free-lunch scan against its definition


def _segment_config(b, c, jumps=None, atoms=()):
    d = len(b)
    seg = {"t_start": 0.0, "t_end": 1.0, "b_kind": "trunc",
           "b": [float(v) for v in b], "c": [[float(v) for v in row] for row in c]}
    if jumps is not None:
        seg["jumps"] = {"family": "finite_atoms", "points": jumps[0].tolist(),
                        "masses": jumps[1].tolist()}
    return {"horizon": 1.0, "dimension": d, "segments": [seg],
            "atoms": [{"time": 0.25 * (k + 1), "points": pts.tolist(),
                       "masses": ms.tolist()} for k, (pts, ms) in enumerate(atoms)]}


def _random_outcomes(gen, d):
    """Atoms in general position, on one side of a plane, or in a subspace."""
    n = int(gen.integers(1, 7))
    pts = gen.uniform(-1.5, 1.5, size=(n, d))
    shape = gen.integers(3)
    if shape == 1:
        v = gen.normal(size=d)
        pts[pts @ v < 0.0] *= -1.0
    elif shape == 2 and d > 1:
        q = np.linalg.qr(gen.normal(size=(d, int(gen.integers(1, d)))))[0]
        pts = pts @ q @ q.T
    masses = gen.uniform(0.05, 0.4, size=n)
    return pts, masses * gen.uniform(0.3, 0.9) / masses.sum()


def _random_config(gen):
    """One segment with a full, rank-deficient or zero covariance, optional
    finite-atom jumps and drift, and up to two scheduled jumps, d in 1..4."""
    d = int(gen.integers(1, 5))
    rank = (d, int(gen.integers(0, d)), 0)[gen.integers(3)]
    a = gen.normal(size=(d, rank))
    # drifts from 1e-9 to 0.3 in size, or none
    b = gen.uniform(-0.3, 0.3, size=d) * 10.0 ** gen.uniform(-8.0, 0.0) \
        * (gen.random() < 0.8)
    jumps = _random_outcomes(gen, d) if gen.random() < 0.6 else None
    atoms = [_random_outcomes(gen, d) for _ in range(int(gen.integers(0, 3)))]
    return _segment_config(b, 0.1 * a @ a.T, jumps, atoms)


def _assert_free_lunch(lam, b0, c, x):
    """lam sees no diffusion, no outcome against it, and wins by the drift
    where no outcome is along it, or by the outcomes with a drift >= 0."""
    assert np.linalg.norm(lam) == pytest.approx(1.0)
    assert lam @ c @ lam <= 1e-12 * (1.0 + np.trace(c))
    tol = 1e-9 * (1.0 + np.linalg.norm(x, axis=1))
    assert np.all(x @ lam >= -tol)
    if np.any(x @ lam > tol):
        assert lam @ b0 >= -1e-12
    else:
        assert lam @ b0 > 0.0


def _check_report(model):
    """Every witness meets the definition; every unbounded optimum is flagged."""
    report = check_instantaneous_no_arbitrage(model)
    seg = model.segments[0].chars
    if report.witness_direction is not None:
        x = seg.jumps.points if seg.jumps is not None else np.empty((0, model.dim))
        _assert_free_lunch(report.witness_direction,
                           seg.b_trunc - small_jump_mean(seg), seg.cov, x)
    violated = dict(report.atom_violations)
    for atom in model.atoms:
        if atom.time in violated:
            # a scheduled jump has no drift or diffusion: it wins by outcomes
            _assert_free_lunch(violated[atom.time], np.zeros(model.dim),
                               np.zeros((model.dim, model.dim)), atom.law.points)
    for kind in ("mv", "mmv"):
        sol = solve_schedule(model, kind)
        if sol.segment_optima[0].boundedness == "unbounded_flagged":
            assert report.witness_direction is not None
        for atom, opt in zip(model.atoms, sol.atom_optima):
            if opt.boundedness == "unbounded_flagged":
                assert atom.time in violated
    return report


def test_no_arbitrage_witnesses_meet_the_definition_on_random_models():
    gen = np.random.default_rng(31)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        report = _check_report(build_model(_random_config(gen)))
        verdicts[report.holds] += 1
    # both verdicts occur often, so neither check above is vacuous
    assert min(verdicts.values()) >= 60


def test_scheduled_jump_verdict_ignores_outcome_scale():
    gen = np.random.default_rng(37)
    for _ in range(100):
        d = int(gen.integers(1, 5))
        pts, masses = _random_outcomes(gen, d)
        config = _segment_config(np.zeros(d), 0.1 * np.eye(d), atoms=[(pts, masses)])
        holds = check_instantaneous_no_arbitrage(build_model(config)).holds
        for i, factor in itertools.product(range(pts.shape[0]),
                                           (1e-8, 10.0 ** gen.uniform(-8.0, 8.0), 1e8)):
            scaled = pts.copy()
            scaled[i] *= factor
            config = _segment_config(np.zeros(d), 0.1 * np.eye(d),
                                     atoms=[(scaled, masses)])
            assert check_instantaneous_no_arbitrage(build_model(config)).holds == holds


def test_one_dimensional_jumps_get_the_general_verdict():
    # the per-jump min/max decides as _free_lunch does on each jump alone:
    # outcomes of mixed scales and signs, some of them uncharged
    gen = np.random.default_rng(41)
    laws = []
    for k in range(400):
        n = int(gen.integers(1, 6))
        pts = gen.choice([-1.0, 1.0], size=n) * 10.0 ** gen.uniform(-8.0, 8.0, size=n)
        shape = gen.integers(3)
        if shape == 1:
            pts = np.abs(pts)
        elif shape == 2:
            pts = -np.abs(pts)
        masses = gen.uniform(0.05, 0.3, size=n) * (gen.random(n) < 0.8)
        laws.append((pts[:, None], masses / n))
    times = 0.001 * np.arange(1, len(laws) + 1)
    chars = LocalCharacteristics(np.zeros(1), 0.04 * np.eye(1), None)
    model = MarketModel(1.0, 1, (Segment(0.0, 1.0, chars),),
                        properties.jump_table(laws, times))
    report = check_instantaneous_no_arbitrage(model)
    want = []
    for t, (pts, masses) in zip(times.tolist(), laws):
        w = _free_lunch(np.zeros(1), np.eye(1), pts[masses > 0.0], 0.0)
        if w is not None:
            want.append((t, w.tolist()))
    assert 50 <= len(want) <= 350          # both verdicts occur often
    assert [(t, w.tolist()) for t, w in report.atom_violations] == want


def test_example5_bets_are_all_two_sided():
    # bet outcomes as far apart as -9.5e-8 and 1 still oppose each other
    report = check_instantaneous_no_arbitrage(example_model(5))
    assert report.holds
    assert report.atom_violations == ()


def test_one_sided_bet_of_mixed_scales_is_flagged():
    pts = np.array([[9.5e-8], [2.1e-5], [1.0]])
    config = _segment_config([0.0], [[0.04]], atoms=[(pts, np.full(3, 0.2))])
    report = check_instantaneous_no_arbitrage(build_model(config))
    assert len(report.atom_violations) == 1
    assert report.atom_violations[0][1] == pytest.approx([1.0])


@pytest.mark.parametrize("jumps", [False, True], ids=["no_jumps", "jumps_in_range"])
@pytest.mark.parametrize("v, b", [
    ([[1.0], [-0.3]], [0.05, 0.1]),
    (np.random.default_rng(1).normal(size=(3, 2)), [0.05, -0.1, 0.2]),
    (np.random.default_rng(2).normal(size=(4, 3)), [0.1, 0.0, -0.05, 0.2]),
], ids=["2d_rank1", "3d_rank2", "4d_rank3"])
def test_singular_covariance_drift_is_flagged(v, b, jumps):
    # a drift with a part in null(c) wins without risk when no jump sees
    # that part; jumps along the columns of v lie in the range of c
    v = np.asarray(v, dtype=float)
    law = (np.vstack([v.T, -v.T]), np.full(2 * v.shape[1], 0.1)) if jumps else None
    model = build_model(_segment_config(b, v @ v.T, law))
    report = _check_report(model)
    assert not report.holds
    assert report.witness_time == 0.0
    ch = model.segments[0].chars
    x = ch.jumps.points if jumps else np.empty((0, model.dim))
    _assert_free_lunch(report.witness_direction, ch.b_trunc - small_jump_mean(ch),
                       ch.cov, x)
    for kind in ("mv", "mmv"):
        assert solve_schedule(model, kind).segment_optima[0].boundedness \
            == "unbounded_flagged"


def test_small_part_of_an_outcome_in_null_c_still_opposes_the_drift():
    # c sees only e1; the one outcome's 1e-6 part along -e2 stands against
    # the drift along e2, and the solver finds a bounded optimum
    law = (np.array([[1.0, -1e-6]]), np.array([0.5]))
    model = build_model(_segment_config([0.0, 0.1], [[1.0, 0.0], [0.0, 0.0]], law))
    assert _check_report(model).holds
    assert solve_schedule(model, "mv").segment_optima[0].boundedness != "unbounded_flagged"


def _enumerated_cone_ray(A):
    """Whether some u != 0 has A u >= 0, by enumerating the cone's edges.

    The cone holds a line when A has a null space; otherwise, unless it
    is {0}, it has an edge: a line on which k - 1 independent rows of A
    vanish, with every other row of one sign.
    """
    n, k = A.shape
    A = A / np.maximum(np.linalg.norm(A, axis=1, keepdims=True), 1e-300)

    def null(M):
        if M.shape[0] == 0:
            return np.eye(k)
        _, s, vt = np.linalg.svd(M)
        return vt[int(np.sum(s > 1e-9)):].T

    if null(A).shape[1] > 0:
        return True
    for rows in itertools.combinations(range(n), k - 1):
        u = null(A[list(rows)])
        if u.shape[1] == 1 and ((A @ u[:, 0] >= -1e-9).all()
                                or (A @ u[:, 0] <= 1e-9).all()):
            return True
    return False


def test_cone_ray_matches_edge_enumeration():
    gen = np.random.default_rng(41)
    found = 0
    for _ in range(3000):
        k, n = int(gen.integers(1, 5)), int(gen.integers(0, 9))
        A = gen.normal(size=(n, k))
        shape = gen.integers(4)
        if shape == 1 and n:                       # one-sided rows
            A[A @ gen.normal(size=k) < 0.0] *= -1.0
        elif shape == 2 and k > 1:                 # rows in a subspace
            q = np.linalg.qr(gen.normal(size=(k, int(gen.integers(1, k)))))[0]
            A = A @ q @ q.T
        elif shape == 3 and n:                     # one row rescaled
            A[gen.integers(n)] *= 10.0 ** gen.uniform(-8.0, 8.0)
        u = _cone_ray(A)
        assert (u is not None) == _enumerated_cone_ray(A)
        if u is not None:
            found += 1
            unit = A / np.maximum(np.linalg.norm(A, axis=1, keepdims=True), 1e-300)
            assert np.linalg.norm(u) > 0.0
            assert np.all(unit @ u >= -1e-9 * np.linalg.norm(u))
    assert 500 <= found <= 2500
    assert _cone_ray(np.zeros((3, 0))) is None
