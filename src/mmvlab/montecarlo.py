"""Path simulation and the ceiling wealth recursion.

Simulates yield increments of an independent-increment model on a step
grid (exact compound-Poisson jumps, Euler only for the interaction of
the diffusion with the wealth kink) and runs the optimal wealth
recursion: invest the direction times the gap below the bliss level,
clamped at zero for the monotone kind, unclamped for the plain
quadratic kind.

Determinism contract: every unit owns a counter-based stream keyed by
(seed, unit index), so output is a pure function of (seed, n_paths,
n_steps, antithetic), and the first n paths of a study are the paths of
the n-path study.  Within a unit the draw order is fixed: diffusion
normals for all step rows, then Poisson jump counts, then jump sizes
segment by segment, then one uniform per scheduled jump.  An antithetic
unit is a pair of paths sharing every draw except the sign of the
normals.  Units are drawn serially in blocks of fixed size, and each
block goes through the vectorized wealth recursion at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import DEFAULT_QUAD, QuadConfig
from .aggregate import Solution, _split_schedule, solve_schedule
from .errors import InvariantError, UnsupportedMeasure
from .localutil import UtilityKind, _kind, utility
from .model import MarketModel, small_jump_mean

# Units per block.  Larger blocks do not run faster, and their
# (paths, rows) temporaries raise the peak memory of a study.
_BLOCK_UNITS = 256


@dataclass(frozen=True)
class SimConfig:
    """Simulation size and reproducibility parameters.

    n_steps counts diffusion steps per segment; scheduled jumps get
    extra zero-length rows of their own.  Output is a pure function of
    (seed, n_paths, n_steps, antithetic).
    """

    n_paths: int
    n_steps: int = 2000
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        if self.n_paths < 1:
            raise InvariantError("n_paths must be at least 1")
        if self.n_steps < 1:
            raise InvariantError("n_steps must be at least 1")


@dataclass(frozen=True)
class PathStats:
    estimate: float
    std_error: float
    n: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise InvariantError("standard error cannot be negative")


@dataclass(frozen=True)
class PathSet:
    """Simulated increments on the step grid, one row per time slice.

    increments has shape (n_paths, n_rows, dim).  Rows with seg_index
    >= 0 are diffusion steps of that segment; rows with atom_index >= 0
    are scheduled jumps (dt = 0).
    """

    increments: np.ndarray
    t_end: np.ndarray
    dt: np.ndarray
    seg_index: np.ndarray
    atom_index: np.ndarray
    model: MarketModel
    config: SimConfig

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def n_rows(self) -> int:
        return self.increments.shape[1]


class _Grid:
    """Precomputed row layout and per-segment sampling data."""

    def __init__(self, model: MarketModel, n_steps: int, cfg: QuadConfig):
        self.dim = model.dim
        rows = []   # (t_end, tie, dt, seg, atom): steps sort before a
        t0 = 0.0    # jump scheduled at the same instant
        atom_times = sorted({a.time for a in model.atoms})
        for i, seg in enumerate(model.segments):
            t1 = t0 + seg.length
            edges = np.linspace(t0, t1, n_steps + 1)
            inner = [t for t in atom_times if t0 < t < t1]
            if inner:
                edges = np.unique(np.concatenate([edges, inner]))
            for a, b in zip(edges[:-1], edges[1:]):
                rows.append((b, 0, b - a, i, -1))
            t0 = t1
        for j, atom in enumerate(model.atoms):
            rows.append((atom.time, 1, 0.0, -1, j))
        rows.sort(key=lambda r: (r[0], r[1]))

        self.t_end = np.array([r[0] for r in rows])
        self.dt = np.array([r[2] for r in rows])
        self.seg_index = np.array([r[3] for r in rows], dtype=int)
        self.atom_index = np.array([r[4] for r in rows], dtype=int)
        self.n_rows = len(rows)

        step_rows = np.flatnonzero(self.seg_index >= 0)
        self.step_rows = step_rows
        self.n_step_rows = step_rows.size
        self.step_dt = self.dt[step_rows]

        # per-row deterministic move: zero-truncation drift times dt
        self.drift = np.zeros((self.n_rows, self.dim))
        self.vols: list[np.ndarray | None] = []
        self.seg_laws = []
        self.seg_step_pos: list[np.ndarray] = []   # positions in step order
        rates = np.zeros(self.n_step_rows)
        for i, seg in enumerate(model.segments):
            chars = seg.chars
            jumps = chars.jumps
            if jumps is not None and not math.isfinite(jumps.total_mass()):
                raise UnsupportedMeasure(
                    "infinite-activity jump measure cannot be simulated")
            b0 = np.atleast_1d(chars.b_trunc) - small_jump_mean(chars, cfg)
            pos = np.flatnonzero(self.seg_index[step_rows] == i)
            self.seg_step_pos.append(pos)
            self.drift[step_rows[pos]] = b0[None, :] * self.dt[step_rows[pos], None]
            cov = np.atleast_2d(chars.cov)
            if np.any(cov):
                w, v = np.linalg.eigh(cov)
                self.vols.append(v * np.sqrt(np.clip(w, 0.0, None)))
            else:
                self.vols.append(None)
            self.seg_laws.append(jumps)
            if jumps is not None:
                rates[pos] = jumps.total_mass()
        self.step_rates = rates
        self.has_jumps = bool(np.any(rates > 0.0))
        self.has_diffusion = any(v is not None for v in self.vols)

        self.atom_rows = np.flatnonzero(self.atom_index >= 0)
        self.atom_points = [atom.law.points for atom in model.atoms]
        self.atom_cum = [np.cumsum(atom.law.masses) for atom in model.atoms]


def _draw_unit(gen: np.random.Generator, grid: _Grid):
    """One unit's increments split as (shared part, diffusion part).

    The shared part collects drift, compound-Poisson jumps and the
    scheduled jump draws; the diffusion part is linear in the normals,
    so the antithetic partner of base + diff is exactly base - diff.
    """
    base = grid.drift.copy()
    diff = np.zeros_like(base)
    if grid.has_diffusion and grid.n_step_rows:
        z = gen.standard_normal((grid.n_step_rows, grid.dim))
        for i, pos in enumerate(grid.seg_step_pos):
            vol = grid.vols[i]
            if vol is None or pos.size == 0:
                continue
            rows = grid.step_rows[pos]
            diff[rows] = np.sqrt(grid.step_dt[pos])[:, None] * (z[pos] @ vol.T)
    if grid.has_jumps:
        counts = gen.poisson(grid.step_rates * grid.step_dt)
        for i, pos in enumerate(grid.seg_step_pos):
            law = grid.seg_laws[i]
            if law is None or pos.size == 0:
                continue
            c = counts[pos]
            total = int(c.sum())
            if total == 0:
                continue
            sizes = np.asarray(law.sample(gen, total), dtype=float)
            if sizes.ndim == 1:
                sizes = sizes[:, None]
            target = np.repeat(grid.step_rows[pos], c)
            np.add.at(base, target, sizes)
    for j, row in enumerate(grid.atom_rows):
        u = gen.uniform()
        cum = grid.atom_cum[j]
        k = int(np.searchsorted(cum, u, side="right"))
        if k < cum.size:
            base[row] = grid.atom_points[j][k]
    return base, diff


def _unit_generator(seed: int, unit: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, unit], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _unit_layout(sim: SimConfig) -> tuple[int, int]:
    """Number of units and paths per unit for the configured pairing."""
    if sim.antithetic:
        return (sim.n_paths + 1) // 2, 2
    return sim.n_paths, 1


def _blocks(sim: SimConfig, grid: _Grid):
    """Yield (first path index, increments) for each block of units.

    increments has shape (paths, rows, dim); the paths of unit k are
    consecutive, the base + diff path first.
    """
    n_units, per_unit = _unit_layout(sim)
    for lo in range(0, n_units, _BLOCK_UNITS):
        hi = min(lo + _BLOCK_UNITS, n_units)
        block = np.empty((hi - lo, per_unit, grid.n_rows, grid.dim))
        for unit in range(lo, hi):
            base, diff = _draw_unit(_unit_generator(sim.seed, unit), grid)
            np.add(base, diff, out=block[unit - lo, 0])
            if per_unit == 2:
                np.subtract(base, diff, out=block[unit - lo, 1])
        first = lo * per_unit
        yield first, block.reshape(-1, grid.n_rows, grid.dim)[:sim.n_paths - first]


def simulate_paths(model: MarketModel, sim: SimConfig,
                   cfg: QuadConfig = DEFAULT_QUAD) -> PathSet:
    """Simulate increments of the yield process on the step grid.

    Materializes the full (n_paths, n_rows, dim) array; for large
    studies prefer run_wealth_study, which streams paths and keeps only
    terminal quantities.
    """
    grid = _Grid(model, sim.n_steps, cfg)
    n_bytes = sim.n_paths * grid.n_rows * grid.dim * 8
    if n_bytes > 2 ** 31:
        raise InvariantError(
            "path set too large to materialize; use run_wealth_study")
    out = np.empty((sim.n_paths, grid.n_rows, grid.dim))
    for first, inc in _blocks(sim, grid):
        out[first:first + inc.shape[0]] = inc
    return PathSet(increments=out, t_end=grid.t_end, dt=grid.dt,
                   seg_index=grid.seg_index, atom_index=grid.atom_index,
                   model=model, config=sim)


def _row_directions(model: MarketModel, grid_seg: np.ndarray,
                    grid_atom: np.ndarray, schedule) -> np.ndarray:
    seg_lams, atom_lams = _split_schedule(model, schedule)
    d = model.dim
    out = np.zeros((grid_seg.size, d))
    for i, lam in enumerate(seg_lams):
        out[grid_seg == i] = lam
    for j, lam in enumerate(atom_lams):
        out[grid_atom == j] = lam
    return out


def _bliss(x: float, gamma: float, scale: float) -> float:
    if gamma <= 0.0:
        raise InvariantError("risk aversion must be positive")
    if scale <= 0.0:
        raise InvariantError("scale must be positive")
    return x + scale / gamma


def _gap_products(increments: np.ndarray, lam_rows: np.ndarray,
                  mmv: bool) -> tuple[np.ndarray, np.ndarray]:
    """Running gap factors and capped products of (paths, rows, dim) increments.

    With u = increments . direction per row, the gap to bliss after row
    r is the initial gap times g[:, r], the running product of 1 - u.
    For the monotone kind g freezes at its first value <= 0: wealth has
    reached bliss and stays.  capped is the product of 1 - min(u, 1).
    """
    u = np.einsum("prd,rd->pr", increments, lam_rows)
    g = np.cumprod(1.0 - u, axis=1)
    if mmv:
        crossed = g <= 0.0
        hit = np.flatnonzero(crossed.any(axis=1))
        first = crossed[hit].argmax(axis=1)
        later = np.arange(g.shape[1])[None, :] > first[:, None]
        g[hit] = np.where(later, g[hit, first][:, None], g[hit])
    np.minimum(u, 1.0, out=u)
    np.subtract(1.0, u, out=u)
    return g, np.prod(u, axis=1)


def _path_products(paths: PathSet, schedule, mmv: bool):
    lam_rows = _row_directions(paths.model, paths.seg_index,
                               paths.atom_index, schedule)
    return _gap_products(paths.increments, lam_rows, mmv)


def wealth_recursion(paths: PathSet, schedule, kind, x: float = 0.0,
                     gamma: float = 1.0, scale: float = 1.0) -> np.ndarray:
    """Wealth paths of the gap strategy; shape (n_paths, n_rows + 1).

    Per row the invested amount is the direction times (bliss - W),
    clamped at zero for the monotone kind.  The defaults give the
    normalized problem: start at 0, bliss level 1.
    """
    mmv = _kind(kind) is UtilityKind.MMV
    bliss = _bliss(x, gamma, scale)
    g, _ = _path_products(paths, schedule, mmv)
    w = np.empty((paths.n_paths, paths.n_rows + 1))
    w[:, 0] = x
    w[:, 1:] = bliss - (bliss - x) * g
    return w


def capped_exponential(paths: PathSet, schedule) -> np.ndarray:
    """Terminal product of (1 - u∧1) per path, u the scaled increments.

    Equals (bliss - W_T)+ / (bliss - x) for the monotone recursion
    pathwise; also the unnormalized dual density candidate.
    """
    return _path_products(paths, schedule, mmv=False)[1]


@dataclass(frozen=True)
class WealthStudy:
    """Terminal quantities of a streamed simulation run."""

    terminal_wealth: np.ndarray        # (n_paths,)
    capped_exponential: np.ndarray     # (n_paths,) dual density numerator
    terminal_increment: np.ndarray     # (n_paths, dim) sum of increments
    kind: UtilityKind
    bliss: float
    n_rows: int
    config: SimConfig


def run_wealth_study(model: MarketModel, sim: SimConfig, kind,
                     x: float = 0.0, gamma: float = 1.0, scale: float = 1.0,
                     solution: Solution | None = None,
                     cfg: QuadConfig = DEFAULT_QUAD) -> WealthStudy:
    """Simulate and reduce to terminal wealth without storing paths.

    Solves for the optimal schedule when none is passed.  Memory is
    O(n_paths + block size x n_rows), so large path counts are fine.
    """
    kind = _kind(kind)
    if solution is None:
        solution = solve_schedule(model, kind, cfg)
    grid = _Grid(model, sim.n_steps, cfg)
    lam_rows = _row_directions(model, grid.seg_index, grid.atom_index, solution)
    bliss = _bliss(x, gamma, scale)
    mmv = kind is UtilityKind.MMV

    w_t = np.empty(sim.n_paths)
    capped = np.empty(sim.n_paths)
    r_t = np.empty((sim.n_paths, grid.dim))
    for first, inc in _blocks(sim, grid):
        span = slice(first, first + inc.shape[0])
        g, capped[span] = _gap_products(inc, lam_rows, mmv)
        w_t[span] = bliss - (bliss - x) * g[:, -1]
        r_t[span] = inc.sum(axis=1)
    return WealthStudy(terminal_wealth=w_t, capped_exponential=capped,
                       terminal_increment=r_t, kind=kind, bliss=bliss,
                       n_rows=grid.n_rows, config=sim)


def estimate_stats(values, functional: str = "mean",
                   antithetic: bool = False) -> PathStats:
    """Sample estimate with standard error for one functional.

    With antithetic pairing the estimate and its error are computed over
    pair averages (consecutive values form a pair), which is the valid
    estimator for mirrored draws; a lone last value is left out, and at
    least two complete pairs are needed.  The Sharpe functional uses the
    large-sample error formula and ignores pairing.
    """
    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    if n < 2:
        raise InvariantError("need at least two paths for an estimate")
    if functional == "sharpe":
        m = float(v.mean())
        s = float(v.std(ddof=1))
        if s == 0.0:
            raise InvariantError("constant values have no Sharpe ratio")
        sr = m / s
        return PathStats(sr, math.sqrt((1.0 + 0.5 * sr * sr) / n), n)
    if functional == "mean":
        t = v
    elif functional == "second_moment":
        t = v * v
    elif functional == "utility_mmv":
        t = utility(UtilityKind.MMV, v)
    elif functional == "utility_mv":
        t = utility(UtilityKind.MV, v)
    elif functional == "prob_ge_one":
        t = (v >= 1.0).astype(float)
    else:
        raise InvariantError(f"unknown functional {functional!r}")
    if antithetic:
        if n < 4:
            raise InvariantError("need at least two antithetic pairs for an estimate")
        m = n // 2
        units = 0.5 * (t[0:2 * m:2] + t[1:2 * m:2])
    else:
        units = t
    est = float(units.mean())
    se = float(units.std(ddof=1)) / math.sqrt(units.size)
    return PathStats(est, se, n)
