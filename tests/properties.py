"""Reusable randomized property checks.

Each helper draws its own cases from a seeded generator and returns the
worst deviation observed, so the unit tests and the timed acceptance
suite can assert the same invariants through one implementation.

The independent oracles here deliberately avoid the package's own code
paths: drifts are checked against plain weighted sums and sampling,
optima against dense grid scans of a four-line objective.
"""
import itertools
import math

import numpy as np

from mmvlab import (CumulativeUtility, ExpTails1D, FiniteAtoms, Gaussian1D,
                    LocalCharacteristics, ScheduledJumps, SimConfig, TabulatedDensity1D,
                    build_model, compounding_dual, det_stoch_exponential, local_utility,
                    maximize_local_utility, run_wealth_study, sharpe_hansen_convert,
                    utility, wealth_recursion, simulate_paths)
from mmvlab.drift import drifts
from mmvlab.duality import _mellin_specs
from mmvlab.localutil import _slope_spec, _utility_spec
from mmvlab.measures import CappedMeasure, ExpYieldMeasure
from mmvlab.montecarlo import _BLOCK_UNITS, capped_exponential


def pieces_at(f, x) -> np.ndarray:
    """The `Pieces` f at the points x, each point read on its own piece
    (the value at an edge taken from f.at there)."""
    x = np.asarray(x, dtype=float)
    edges = np.array(f.edges + (math.nan,))
    j = edges.searchsorted(x)
    c0, c1, c2 = np.array(f.coef).T[:, j]
    return np.where(edges[j] == x, np.array(f.at + (math.nan,))[j], c0 + c1 * x + c2 * x * x)


def jump_table(laws, times):
    """The scheduled jumps of (points (k, d), masses (k,)) laws at the
    given times, with unit weights, as one table."""
    return ScheduledJumps(times, np.ones(len(laws)), np.concatenate([p for p, _ in laws]),
                          np.concatenate([m for _, m in laws]),
                          np.repeat(np.arange(len(laws)), [len(m) for _, m in laws]))


def jump_chars(points, masses):
    """Characteristics of one scheduled jump of the given law (no
    diffusion, truncated drift the mean of h), from a one-row table."""
    return jump_table([(points, masses)], [1.0])[0].chars


def random_atom_chars(gen, dim=1, n_points=None):
    """Finite-atom characteristics with bounded outcomes and some spread."""
    n = n_points if n_points is not None else int(gen.integers(2, 6))
    pts = gen.uniform(-0.9, 1.5, size=(n, dim))
    # force at least one loss outcome so no direction is a free win
    pts[0] = -np.abs(pts[0]) - 0.05
    masses = gen.uniform(0.05, 0.4, size=n)
    masses *= gen.uniform(0.3, 1.0) / masses.sum()
    b = gen.uniform(-0.3, 0.3, size=dim)
    c = np.diag(gen.uniform(0.05, 0.3, size=dim))
    return LocalCharacteristics(b, c, FiniteAtoms(pts, masses))


def random_jump_chars(gen, losses=True):
    """Scheduled-jump characteristics: no diffusion, drift the mean of h.

    Without a loss outcome nothing curves the monotone utility past the
    last bliss point, so its maximum is a plateau there.
    """
    n = int(gen.integers(2, 6))
    if losses:
        pts = gen.uniform(-0.9, 1.5, size=n)
        pts[0] = -abs(pts[0]) - 0.05
    else:
        pts = gen.uniform(0.05, 1.5, size=n)
    masses = gen.uniform(0.05, 0.4, size=n)
    masses *= gen.uniform(0.3, 1.0) / masses.sum()
    return jump_chars(pts[:, None], masses)


def random_density_chars(gen):
    """One-dimensional characteristics whose jumps are a Gaussian, an
    exponential-tail or a tabulated law, plain, in yields or capped; every
    moment the variations need is finite."""
    family = int(gen.integers(3))
    if family == 0:
        law = Gaussian1D(gen.uniform(-0.1, 0.1), gen.uniform(0.005, 0.05), gen.uniform(0.5, 2.0))
    elif family == 1:
        law = ExpTails1D(gen.uniform(0.5, 3.0), gen.uniform(4.0, 15.0), gen.uniform(0.5, 3.0),
                         gen.uniform(4.0, 15.0))
    else:
        grid = np.linspace(-gen.uniform(0.2, 0.6), gen.uniform(0.2, 0.8), int(gen.integers(9, 41)))
        law = TabulatedDensity1D(grid, gen.uniform(0.5, 2.0) * np.exp(-8.0 * grid * grid))
    image = int(gen.integers(3))
    if image == 1:
        law = ExpYieldMeasure(law)
    elif image == 2:
        law = CappedMeasure(law, gen.uniform(0.1, 0.5))
    return LocalCharacteristics(gen.uniform(-0.3, 0.3, size=1),
                                np.array([[gen.uniform(0.0, 0.1)]]), law)


def combine_specs(a, xi, b, eta):
    """The spec of a xi + b eta, two specs at one lam: rows, bliss value,
    slope and curvature combined alike."""
    def mix(u, v):
        return tuple(a * s + b * t for s, t in zip(u, v))
    return mix(xi[0], eta[0]), mix(xi[1], eta[1]), *mix(xi[2:], eta[2:])


def check_drift_linearity(n_cases=200, seed=5):
    """Worst |drift(a xi + b eta) - a drift(xi) - b drift(eta)| over pairs
    of the utility, slope and sign-moment specs at one lam, against
    density laws."""
    gen = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        chars = random_density_chars(gen)
        lam = float(gen.uniform(-2.0, 2.0))
        a, b = gen.uniform(-3.0, 3.0, size=2)
        specs = [_utility_spec(lam, "mv"), _utility_spec(lam, "mmv"), _slope_spec(lam, "mv"),
                 _slope_spec(lam, "mmv"), *_mellin_specs(lam)]
        xi, eta = (specs[i] for i in gen.choice(len(specs), size=2, replace=False))
        lhs, d_xi, d_eta = drifts(lam, [combine_specs(a, xi, b, eta), xi, eta], chars)
        worst = max(worst, abs(lhs - (a * d_xi + b * d_eta)))
    return worst


def _random_config(gen):
    """One-segment config with atom jumps, expressed with b_kind zero."""
    n = int(gen.integers(2, 5))
    pts = gen.uniform(-0.9, 1.6, size=n)
    masses = gen.uniform(0.05, 0.3, size=n)
    return {
        "horizon": 1.0,
        "dimension": 1,
        "segments": [{
            "t_start": 0.0, "t_end": 1.0, "b_kind": "zero",
            "b": float(gen.uniform(-0.3, 0.3)),
            "c": float(gen.uniform(0.01, 0.2)),
            "jumps": {"family": "finite_atoms",
                      "points": [[float(p)] for p in pts],
                      "masses": [float(m) for m in masses]},
        }],
    }


def check_truncation_invariance(n_cases=50, seed=7):
    """Drift computed from zero-truncation and h-truncation drifts agrees.

    The same market is loaded twice: once with the drift stated for the
    untruncated small-jump convention (b_kind zero) and once with the
    equivalent h-truncated drift (b_kind trunc) read off the first
    model.  Any variation must see identical drift through both
    descriptions.
    """
    gen = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        cfg = _random_config(gen)
        m_zero = build_model(cfg)
        seg = dict(cfg["segments"][0], b_kind="trunc",
                   b=float(m_zero.segments[0].chars.b_trunc[0]))
        m_trunc = build_model(dict(cfg, segments=[seg]))
        lam = float(gen.uniform(-2.0, 2.0))
        for kind in ("mv", "mmv"):
            d0 = local_utility(lam, m_zero.segments[0].chars, kind)
            d1 = local_utility(lam, m_trunc.segments[0].chars, kind)
            worst = max(worst, abs(d0 - d1))
    return worst


def check_concavity(n_triples=1000, seed=11):
    """Smallest slack of g(t a + (1-t) b) >= t g(a) + (1-t) g(b)."""
    gen = np.random.default_rng(seed)
    a = gen.uniform(-6.0, 6.0, size=n_triples)
    b = gen.uniform(-6.0, 6.0, size=n_triples)
    t = gen.uniform(0.0, 1.0, size=n_triples)
    slack = math.inf
    for kind in ("mv", "mmv"):
        mid = utility(kind, t * a + (1.0 - t) * b)
        chord = t * utility(kind, a) + (1.0 - t) * utility(kind, b)
        slack = min(slack, float(np.min(mid - chord)))
    return slack


def _grid_objective(chars, kind):
    """Dense-scan oracle value for one-dimensional atom characteristics."""
    xs = chars.jumps.points[:, 0]
    ms = chars.jumps.masses
    hs = np.where(np.abs(xs) <= 1.0, xs, 0.0)
    b = float(chars.b_trunc[0])
    c = float(chars.cov[0, 0])

    def val(lams):
        u = np.outer(lams, xs)
        if kind == "mmv":
            u = np.minimum(u, 1.0)
        g = u - 0.5 * u * u
        return (b * lams - 0.5 * c * lams * lams
                + g @ ms - np.outer(lams, hs) @ ms)

    coarse = np.linspace(-60.0, 60.0, 24001)
    v = val(coarse)
    # the smallest |lam| at the maximum, so a plateau is scanned at its start
    near = np.flatnonzero(v >= v.max() - 1e-12 * (1.0 + abs(v.max())))
    k = int(near[np.argmin(np.abs(coarse[near]))])
    assert 0 < k < coarse.size - 1, "oracle grid clipped the optimum"
    fine = np.linspace(coarse[k - 1], coarse[k + 1], 20001)
    return float(np.max(val(fine)))


def check_optimizer_vs_grid(n_models=50, seed=13):
    """Worst |optimizer value - dense grid value| over random atom models.

    Three families of n_models each: atoms with diffusion, scheduled
    jumps (no diffusion) with a loss outcome, and scheduled jumps
    without one, whose monotone maximum is a plateau.
    """
    families = [
        (np.random.default_rng(seed), random_atom_chars),
        (np.random.default_rng([seed, 1]), random_jump_chars),
        (np.random.default_rng([seed, 2]),
         lambda gen: random_jump_chars(gen, losses=False)),
    ]
    worst = 0.0
    for gen, draw in families:
        for _ in range(n_models):
            chars = draw(gen)
            for kind in ("mv", "mmv"):
                opt = maximize_local_utility(chars, kind)
                worst = max(worst, abs(opt.value - _grid_objective(chars, kind)))
    return worst


_ND_FAMILIES = ("diffusion", "singular_c", "drift_only", "scheduled_jump", "gains_only")


def random_nd_atom_chars(gen, family, dim, n_points):
    """Several-dimensional atom characteristics of one of _ND_FAMILIES.

    Diffusion and singular c draw a full-rank and a rank-deficient
    covariance, drift-only laws have none; scheduled jumps have the
    drift of `jump_chars`, and gains only put every outcome in the
    positive orthant, where the monotone maximum is a plateau.
    """
    lo = 0.05 if family == "gains_only" else -0.9
    pts = gen.uniform(lo, 1.5, size=(n_points, dim))
    masses = gen.uniform(0.05, 0.4, size=n_points)
    masses *= gen.uniform(0.3, 1.0) / masses.sum()
    if family in ("scheduled_jump", "gains_only"):
        return jump_chars(pts, masses)
    b = gen.uniform(-0.3, 0.3, size=dim)
    if family == "drift_only":
        c = np.zeros((dim, dim))
    else:
        a = gen.normal(size=(dim, int(gen.integers(1, dim)) if family == "singular_c"
                             else dim))
        c = 0.1 * a @ a.T
    return LocalCharacteristics(b, c, FiniteAtoms(pts, masses))


def _enumerated_mmv_optimum(chars):
    """Minimum-norm monotone maximizer on atoms by trying every capped set.

    On the set S of capped atoms the utility is the quadratic with slope
    B_S and curvature C_S; a stationary point C_S^+ B_S that caps exactly
    S is a global maximizer.  Returns (value, lam, C_S), or None when no
    piece has one, which for a concave piecewise quadratic means the
    value is unbounded.
    """
    x, m = chars.jumps.points, chars.jumps.masses
    b0 = chars.b_trunc - m @ np.where(np.abs(x) <= 1.0, x, 0.0)
    capped = np.array(list(itertools.product([False, True], repeat=m.size)))
    free = (~capped)[:, :, None] * x
    B = b0 + np.einsum("i,sij->sj", m, free)
    C = chars.cov + np.einsum("sij,sik->sjk", free * m[None, :, None], free)
    lam = np.einsum("sjk,sk->sj", np.linalg.pinv(C), B)
    resid = np.linalg.norm(np.einsum("sjk,sk->sj", C, lam) - B, axis=1)
    scale = np.linalg.norm(B, axis=1) + np.linalg.norm(C, axis=(1, 2)) \
        * np.linalg.norm(lam, axis=1)
    z = lam @ x.T
    tol = 1e-9 * (1.0 + np.abs(z))
    ok = (resid <= 1e-9 * scale) & np.all(np.where(capped, z >= 1.0 - tol,
                                                   z <= 1.0 + tol), axis=1)
    if not ok.any():
        return None
    lam, C = lam[ok], C[ok]
    u = np.minimum(lam @ x.T, 1.0)
    value = (lam @ b0 - 0.5 * np.einsum("sj,jk,sk->s", lam, chars.cov, lam)
             + (u - 0.5 * u * u) @ m)
    best = value >= value.max() - 1e-12 * (1.0 + abs(value.max()))
    k = np.flatnonzero(best)[np.argmin(np.linalg.norm(lam[best], axis=1))]
    return float(value[k]), lam[k], C[k]


def check_atoms_nd_vs_enumeration(n_laws=200, seed=11):
    """Monotone optima on several-dimensional atoms against enumeration.

    Draws n_laws laws with d = 2, 3, 4 and 2 to 7 atoms, cycling
    through _ND_FAMILIES.  Returns the worst value error relative to
    the size of the terms the utility sums, the worst relative error of
    lam against the minimum-norm maximizer (per unit of cond(C_S)
    beyond 1e6), and the number of laws whose unboundedness flag
    disagrees.
    """
    gen = np.random.default_rng(seed)
    worst_value = worst_lam = 0.0
    flag_errors = 0
    for k in range(n_laws):
        family = _ND_FAMILIES[k % len(_ND_FAMILIES)]
        chars = random_nd_atom_chars(gen, family, int(gen.integers(2, 5)),
                                     int(gen.integers(2, 8)))
        want = _enumerated_mmv_optimum(chars)
        got = maximize_local_utility(chars, "mmv")
        if (want is None) != (got.boundedness == "unbounded_flagged"):
            flag_errors += 1
        elif want is not None:
            value, lam, C = want
            # the value sums terms of size |C_S| |lam|^2, and C_S^+ B_S is
            # determined only to rounding times the condition of C_S
            sv = np.linalg.svd(C, compute_uv=False)
            cond = sv[0] / sv[sv > sv[0] * sv.size * np.finfo(float).eps][-1]
            norm = float(np.linalg.norm(lam))
            worst_value = max(worst_value, abs(got.value - value)
                              / (1.0 + abs(value) + sv[0] * norm * norm))
            worst_lam = max(worst_lam, float(np.linalg.norm(got.lambda_hat - lam))
                            / (1.0 + norm) / max(1.0, 1e-6 * cond))
    return float(worst_value), float(worst_lam), flag_errors


def check_exponential_inversion(n_cases=500, seed=17):
    """Worst |E(-X) * E(+dual(X)) - 1| over random clock sums."""
    gen = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        n = int(gen.integers(0, 12))
        gen.uniform(0.0, 1.0, size=n)       # the jump times, which aggregation ignores
        incs = gen.uniform(0.0, 0.9, size=n)
        cu = CumulativeUtility(float(gen.uniform(0.0, 3.0)), incs, True)
        down = det_stoch_exponential(cu, -1.0).value
        up = det_stoch_exponential(compounding_dual(cu), +1.0).value
        worst = max(worst, abs(down * up - 1.0))
    return worst


def check_sr_hr_roundtrip(n_points=1000):
    """Worst round-trip error of the squared-ratio conversions."""
    hr2 = np.linspace(0.0, 1.0, n_points, endpoint=False)
    worst = 0.0
    for h in hr2:
        s = sharpe_hansen_convert(hr2=float(h))
        back = sharpe_hansen_convert(sr2=s)
        worst = max(worst, abs(back - h))
        if s > 0.0:
            worst = max(worst, abs(sharpe_hansen_convert(hr2=back) - s) / s)
    return worst


def check_pathwise_identity(model, solution, n_paths=512, n_steps=64, seed=3):
    """Worst |(1 - W_T)+ - capped exponential| over simulated paths."""
    paths = simulate_paths(model, SimConfig(n_paths, n_steps, seed=seed))
    w = wealth_recursion(paths, solution, "mmv")
    capped = capped_exponential(paths, solution)
    gap = np.abs(np.maximum(1.0 - w[:, -1], 0.0) - capped)
    return float(np.max(gap))


def check_prefix_determinism(model, solution, kind="mmv", n_steps=16, seed=7):
    """A study of n paths must equal the first n paths of a longer study.

    The shorter study ends one path into its second block of units and
    the longer one spans three blocks, so this also checks that neither
    the block boundaries nor the path count change a draw.
    """
    n_paths = 2 * _BLOCK_UNITS + 1
    n_long = 4 * _BLOCK_UNITS + 3
    short = run_wealth_study(model, SimConfig(n_paths, n_steps, seed=seed),
                             kind, solution=solution)
    long = run_wealth_study(model, SimConfig(n_long, n_steps, seed=seed),
                            kind, solution=solution)
    return all(np.array_equal(getattr(short, name), getattr(long, name)[:n_paths])
               for name in ("terminal_wealth", "capped_exponential",
                            "terminal_increment"))
