"""Bundled example models.

Six ready-made markets exercise every code path: a two-asset one-shot
bet, a jump diffusion in exponential form, two pure-jump yield models
with one-sided heavy tails, and two countable families of scheduled
bets accumulating toward the horizon.  Examples 1-4 ship as JSON
configs; 5 and 6 are generated programmatically because their atom
count is a parameter.
"""
from __future__ import annotations

import functools
import json
from importlib import resources

import numpy as np

from .errors import SchemaError
from .model import (LocalCharacteristics, MarketModel, ScheduledJumps, Segment,
                    build_model, cap_jumps)

EXAMPLE_IDS = (1, 2, 3, 4, 5, 6)

# Ids 5 and 6 take an atom-count cutoff; these defaults are large enough
# for the asymptotic checks while staying fast to solve.
DEFAULT_ATOMS_MAX = {5: 10_000, 6: 1_000}


def example_config(example_id: int) -> dict:
    """Plain-dict model config for a bundled example.

    Ids 1 through 4 are complete.  Ids 5 and 6 are countable families,
    so their stored config is a snapshot truncated at bet index 100;
    use `example_model` to build them at any cutoff.
    """
    if example_id not in EXAMPLE_IDS:
        raise SchemaError("example id must be one of 1..6")
    ref = resources.files("mmvlab").joinpath(f"examples_data/ex{example_id}.json")
    return json.loads(ref.read_text())


@functools.cache
def expected_figures() -> dict:
    """The one table of expected figures, read once per process.

    Keys are the example ids as strings and "selftest".  Each entry has
    "checks", a list of rows, and may have "note", a warning that every
    reproduction of the example carries.  A row names its check and the
    computed value it reads ("value", a dotted path into the values the
    reproducer returns; the name by default).  It compares that value
    with "expected", or with the computed value named by
    "expected_from", in mode abs (within "tol"), le, ge or eq.  A row
    marked "default_atoms_only" applies only at the example's default
    cutoff.  The result is shared: callers must not mutate it.
    """
    ref = resources.files("mmvlab").joinpath("examples_data/expected.json")
    return json.loads(ref.read_text())


def _series_segment() -> Segment:
    chars = LocalCharacteristics(
        b_trunc=np.zeros(1), cov=np.zeros((1, 1)), jumps=None)
    return Segment(0.0, 2.0, chars)


def _bet_indices(n_max: int):
    """Bet indices n = 2..n_max with n^2 and n^3 as exact integers.

    The per-bet formulas divide by Python ints, which round each power
    to the nearest float once; converting exact integer powers does the
    same.  n^3 fits int64 up to n = 2 097 151, past which it is computed
    on Python ints.
    """
    n = np.arange(2, n_max + 1, dtype=np.int64)
    big = n.astype(object) if n_max > 2_097_151 else n
    return n, n * n, big ** 3


def _bet_table(times, weights, points, masses) -> ScheduledJumps:
    """Scheduled jumps of equal-sized one-dimensional bets, one per row."""
    k = points.shape[1]
    return ScheduledJumps(times, weights, points.reshape(-1, 1), masses.ravel(),
                          np.repeat(np.arange(times.size), k))


def _example5_atoms(n_max: int) -> ScheduledJumps:
    # Bet n: tiny loss 1/n^3, even-money gain 1/n^2, rare unit windfall.
    # Index starts at 2 so every mass is strictly positive.
    n, n2, n3 = _bet_indices(n_max)
    w = 1.0 / n2.astype(float)
    points = np.stack([-1.0 / n3.astype(float), w, np.ones(n.size)], axis=1)
    masses = np.stack([0.5 - w, np.full(n.size, 0.5), w], axis=1)
    return _bet_table(2.0 - 1.0 / n.astype(float), w, points, masses)


def _example6_atoms(n_max: int) -> ScheduledJumps:
    # Bet n: near-certain small loss against a rare gain close to 1,
    # tuned so the squared Hansen ratio is exactly 1/(n+1).
    n, n2, n3 = _bet_indices(n_max)
    nf = n.astype(float)
    d = (n3 + 1).astype(float)
    points = np.stack([-(nf + 1.0) / d, (n3 - n).astype(float) / d], axis=1)
    masses = np.stack([n3.astype(float) / d, 1.0 / d], axis=1)
    return _bet_table(2.0 - 1.0 / nf, 1.0 / n2.astype(float), points, masses)


#: example 5's margins run from bet EX5_FROM, against the limits of k/(2w) (mv) and k (mmv)
EX5_FROM, EX5_RATE, EX5_HANSEN = 10, 1.125, 0.5


def example5_series_finite(rate_margin: float,
                           hansen_margin: float) -> tuple[bool | None, bool | None]:
    """Whether example 5's (mv, mmv) clock series are finite; None where a
    margin past its bound licenses no verdict.  From bet n = 10 on, a
    rate margin n |k/(2w) - 9/8| (w = 1/n^2) of at most 9/8 * 10 keeps
    each mv increment k below 9/(2 n^2), so the mv series converges; a
    Hansen margin n |k - 1/2| of at most 10/4 keeps each mmv increment
    above 1/4, so that series diverges."""
    mv = True if rate_margin <= EX5_RATE * EX5_FROM else None
    mmv = False if hansen_margin <= 0.5 * EX5_HANSEN * EX5_FROM else None
    return mv, mmv


def example6_series_finite(hansen_deviation: float,
                           n_max: int) -> tuple[bool | None, bool | None]:
    """Whether example 6's (mv, mmv) clock series are finite; None where
    the deviation licenses no verdict.  A deviation |k - 1/(n+1)| of at
    most 1/(2 (n_max + 1)) over bets n = 2..n_max keeps each mv increment
    k above 1/(2 (n+1)), so the mv series diverges with the harmonic
    series; each mmv increment is at least the mv one, so that one too."""
    mv = False if hansen_deviation <= 0.5 / (n_max + 1.0) else None
    return mv, mv


def example_model(example_id: int, atoms_max: int | None = None) -> MarketModel:
    """Build a bundled example market.

    `atoms_max` truncates the countable families (ids 5 and 6) at the
    given bet index; it is rejected for the other ids, where it has no
    meaning.
    """
    if example_id not in EXAMPLE_IDS:
        raise SchemaError("example id must be one of 1..6")
    if example_id in (5, 6):
        n_max = DEFAULT_ATOMS_MAX[example_id] if atoms_max is None else int(atoms_max)
        if n_max < 2:
            raise SchemaError("atoms_max must be at least 2")
        atoms = _example5_atoms(n_max) if example_id == 5 else _example6_atoms(n_max)
        return MarketModel(horizon=2.0, dim=1, segments=(_series_segment(),),
                           atoms=atoms)
    if atoms_max is not None:
        raise SchemaError("atoms_max applies only to examples 5 and 6")
    return build_model(example_config(example_id))


def capped_variant(model: MarketModel, cap: float) -> MarketModel:
    """The same market with every jump capped at `cap` from above.

    Capping bounds the upside, which restores square integrability for
    heavy right tails and, for small enough caps, makes the monotone
    and quadratic problems provably coincide.
    """
    if model.dim != 1:
        raise SchemaError("jump capping is implemented for one asset only")
    segments = tuple(
        Segment(seg.t_start, seg.t_end, cap_jumps(seg.chars, cap))
        for seg in model.segments)
    atoms = model.atoms.with_points(np.minimum(model.atoms.points, cap))
    return MarketModel(horizon=model.horizon, dim=model.dim,
                       segments=segments, atoms=atoms)
