"""Path simulation and the ceiling wealth recursion.

Simulates yield increments of an independent-increment model on a step
grid (exact compound-Poisson jumps, Euler only for the interaction of
the diffusion with the wealth kink) and runs the optimal wealth
recursion: invest the direction times the gap below the bliss level,
clamped at zero for the monotone kind, unclamped for the plain
quadratic kind.

Determinism contract: paths are drawn in units (an antithetic pair of
paths, or one path), and units in blocks of _BLOCK_UNITS = 256.  Block
k draws from one counter-based Philox stream keyed by (seed, k) and
always draws all 256 units, however many paths are asked for; the last
block is cut to the path count.  Output is therefore a pure function of
(seed, n_paths, n_steps, antithetic), and the first n paths of a study
are the paths of the n-path study.  Within a block the draw order is
fixed:

1. diffusion normals, one (units, rows, dim) array (only when some
   segment diffuses; rows of scheduled jumps have zero volatility);
2. jump counts, one (units, jumping segments) array of Poisson totals
   per unit and segment with a positive jump rate;
3. for each jumping segment in order, one uniform per jump, units in
   order, that places the jump in a step row with probability
   proportional to the row's dt, then the jump sizes in the same order;
4. one (units, scheduled jumps) array of uniforms that pick each
   scheduled jump's outcome.

An antithetic unit is a pair of paths sharing every draw except the
sign of the normals.  Each block goes through the vectorized wealth
reduce at once.

Blocks run on up to _MAX_WORKERS = 8 worker threads, at most one per
usable core (numpy's draws and array passes release the GIL).  A
worker reuses one set of block buffers for every block it takes, and
each block writes only its own span of the outputs, so output does not
depend on the number of cores or on which worker drew which block.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .aggregate import Solution, _split_schedule, solve_schedule
from .errors import InvariantError, UnsupportedMeasure
from .localutil import UtilityKind, _kind, utility
from .measures import _sorted_unique
from .model import MarketModel, small_jump_mean

# Units per block.  The block size is part of the stream layout: changing
# it changes every draw.  A block's (units, rows) temporaries take about
# 4 MB at 2 000 rows.
_BLOCK_UNITS = 256

# Most worker threads a run uses.  A worker's buffers (_BlockBuffers) take
# about 28 MB at 2 000 rows of one asset with antithetic pairs, so the
# workers of such a run hold at most about 230 MB.
_MAX_WORKERS = 8


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
    """Row layout of the step grid and the data one block of draws needs."""

    def __init__(self, model: MarketModel, n_steps: int):
        self.dim = model.dim
        rows = []   # (t_end, tie, dt, seg, atom): steps sort before a
        t0 = 0.0    # jump scheduled at the same instant
        table = model.atoms
        atom_times = sorted(set(table.times.tolist()))
        for i, seg in enumerate(model.segments):
            t1 = t0 + seg.length
            edges = np.linspace(t0, t1, n_steps + 1)
            inner = [t for t in atom_times if t0 < t < t1]
            if inner:
                edges = _sorted_unique(np.concatenate([edges, inner]))
            for a, b in zip(edges[:-1], edges[1:]):
                rows.append((b, 0, b - a, i, -1))
            t0 = t1
        rows.extend((t, 1, 0.0, -1, j) for j, t in enumerate(table.times.tolist()))
        rows.sort(key=lambda r: (r[0], r[1]))

        self.t_end = np.array([r[0] for r in rows])
        self.dt = np.array([r[2] for r in rows])
        self.seg_index = np.array([r[3] for r in rows], dtype=int)
        self.atom_index = np.array([r[4] for r in rows], dtype=int)
        self.n_rows = len(rows)

        # per row: the deterministic move (zero-truncation drift times dt)
        # and sqrt(dt) times a square root of the covariance, zero on the
        # rows of scheduled jumps
        self.drift = np.zeros((self.n_rows, self.dim))
        vol = np.zeros((self.n_rows, self.dim, self.dim))
        # (mean count, rows, cumulative dt share of the rows, law) of every
        # segment with a positive jump rate
        self.jump_segments = []
        for i, seg in enumerate(model.segments):
            chars = seg.chars
            jumps = chars.jumps
            rate = 0.0 if jumps is None else jumps.total_mass()
            if not math.isfinite(rate):
                raise UnsupportedMeasure(
                    "infinite-activity jump measure cannot be simulated")
            seg_rows = np.flatnonzero(self.seg_index == i)
            dt = self.dt[seg_rows]
            b0 = np.atleast_1d(chars.b_trunc) - small_jump_mean(chars)
            self.drift[seg_rows] = b0[None, :] * dt[:, None]
            cov = np.atleast_2d(chars.cov)
            if np.any(cov):
                w, v = np.linalg.eigh(cov)
                vol[seg_rows] = (np.sqrt(dt)[:, None, None]
                                 * (v * np.sqrt(np.clip(w, 0.0, None))))
            if rate > 0.0:
                share = np.cumsum(dt)
                self.jump_segments.append(
                    (rate * seg.length, seg_rows, share / share[-1], jumps))
        self.vol = vol if np.any(vol) else None

        self.atom_rows = np.empty(len(table), dtype=int)
        scheduled = np.flatnonzero(self.atom_index >= 0)
        self.atom_rows[self.atom_index[scheduled]] = scheduled
        self.jumps = table
        # Each jump's cumulative masses, summed within the jump as np.cumsum
        # sums one law, keyed (jump, cumulative mass) as complex numbers:
        # numpy orders those lexicographically, so one searchsorted finds
        # every jump's outcome without adding the jump index to the masses.
        cum = table.masses.copy()
        rank = np.arange(cum.size) - table.offsets[table.row]
        for k in range(1, int(rank.max(initial=0)) + 1):
            at = np.flatnonzero(rank == k)
            cum[at] += cum[at - 1]
        self.atom_keys = table.row + 1j * cum


class _BlockBuffers:
    """One worker's arrays for a block, reused for every block it takes.

    normals, diff and base are (units, rows, dim); block holds the
    block's increments and factors its gap factors.  np.empty maps pages
    on first write, so arrays a caller never uses cost no memory.
    """

    def __init__(self, grid: _Grid, per_unit: int):
        units, n_rows, dim = _BLOCK_UNITS, grid.n_rows, grid.dim
        self.normals = np.empty((units, n_rows, dim))
        self.diff = np.empty((units, n_rows, dim))
        self.base = np.empty((units, n_rows, dim))
        self.block = np.empty((units * per_unit, n_rows, dim))
        self.factors = np.empty((units * per_unit, n_rows))


def _draw_block(gen: np.random.Generator, grid: _Grid, per_unit: int,
                buf: _BlockBuffers, out: np.ndarray | None = None) -> np.ndarray:
    """Increments of one block of _BLOCK_UNITS units, in the draw order
    of the module docstring; shape (units * per_unit, rows, dim).

    Written into out (a C-contiguous array of that shape) when given,
    else into buf.block; every temporary is one of buf's arrays.  Per
    unit a shared part collects drift, compound-Poisson jumps and the
    scheduled jump draws; the diffusion part is linear in the normals,
    so the antithetic partner of base + diff is base - diff.
    """
    units, n_rows, dim = _BLOCK_UNITS, grid.n_rows, grid.dim
    diff = None
    if grid.vol is not None:
        z = gen.standard_normal(out=buf.normals)
        diff = np.multiply(z[..., 0, None], grid.vol[:, :, 0], out=buf.diff)
        for k in range(1, dim):
            diff += z[..., k, None] * grid.vol[:, :, k]
    base = buf.base
    base[:] = grid.drift
    if grid.jump_segments:
        counts = gen.poisson([s[0] for s in grid.jump_segments],
                             size=(units, len(grid.jump_segments)))
        flat = base.reshape(units * n_rows, dim)
        unit_offset = np.arange(units) * n_rows
        for s, (_, rows, share, law) in enumerate(grid.jump_segments):
            c = counts[:, s]
            total = int(c.sum())
            if total == 0:
                continue
            row = rows[np.searchsorted(share, gen.random(total), side="right")]
            sizes = np.asarray(law.sample(gen, total), dtype=float)
            np.add.at(flat, np.repeat(unit_offset, c) + row,
                      sizes.reshape(total, dim))
    jumps = grid.jumps
    if len(jumps):
        u = gen.random((units, len(jumps)))
        t = np.arange(len(jumps))
        k = np.searchsorted(grid.atom_keys, t + 1j * u, side="right")
        hit = k < jumps.offsets[1:]
        unit, t = np.nonzero(hit)
        base[unit, grid.atom_rows[t]] = jumps.points[k[hit]]
    inc = buf.block if out is None else out
    block = inc.reshape(units, per_unit, n_rows, dim)
    if diff is None:
        block[:] = base[:, None]
    else:
        np.add(base, diff, out=block[:, 0])
        if per_unit == 2:
            np.subtract(base, diff, out=block[:, 1])
    return inc


def _block_generator(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _unit_layout(sim: SimConfig) -> tuple[int, int]:
    """Number of units and paths per unit for the configured pairing."""
    if sim.antithetic:
        return (sim.n_paths + 1) // 2, 2
    return sim.n_paths, 1


def _worker_count(n_blocks: int) -> int:
    """Worker threads for n_blocks blocks: min(usable cores, blocks, cap)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, n_blocks, _MAX_WORKERS))


def _run_blocks(sim: SimConfig, grid: _Grid, run_block) -> None:
    """Call run_block(buf, first, paths, gen) once for every block.

    first is the block's first path index, paths its path count (the
    last block is cut to the path count) and gen its Philox stream.
    The blocks go to _worker_count workers; each makes its
    _BlockBuffers once and reuses them for every block it takes.  A
    single worker is the calling thread.  The first exception a worker
    raises stops the others from taking blocks, and is re-raised here
    once every worker has stopped.
    """
    n_units, per_unit = _unit_layout(sim)
    n_blocks = -(-n_units // _BLOCK_UNITS)
    block_paths = _BLOCK_UNITS * per_unit

    def run(buf, k):
        first = k * block_paths
        run_block(buf, first, min(block_paths, sim.n_paths - first),
                  _block_generator(sim.seed, k))

    n_workers = _worker_count(n_blocks)
    if n_workers == 1:
        buf = _BlockBuffers(grid, per_unit)
        for k in range(n_blocks):
            run(buf, k)
        return
    todo = iter(range(n_blocks))
    lock = threading.Lock()
    errors = []

    def work():
        try:
            buf = _BlockBuffers(grid, per_unit)
            while not errors:
                with lock:
                    k = next(todo, None)
                if k is None:
                    return
                run(buf, k)
        except BaseException as exc:    # handed to the calling thread
            errors.append(exc)

    workers = [threading.Thread(target=work, name=f"mmvlab-block-{i}")
               for i in range(n_workers)]
    try:
        for t in workers:
            t.start()
    finally:
        for t in workers:
            if t.ident is not None:
                t.join()
    if errors:
        raise errors[0]


def simulate_paths(model: MarketModel, sim: SimConfig) -> PathSet:
    """Simulate increments of the yield process on the step grid.

    Materializes the full (n_paths, n_rows, dim) array; for large
    studies prefer run_wealth_study, which streams paths and keeps only
    terminal quantities.
    """
    grid = _Grid(model, sim.n_steps)
    n_bytes = sim.n_paths * grid.n_rows * grid.dim * 8
    if n_bytes > 2 ** 31:
        raise InvariantError(
            "path set too large to materialize; use run_wealth_study")
    out = np.empty((sim.n_paths, grid.n_rows, grid.dim))
    per_unit = _unit_layout(sim)[1]

    def run_block(buf, first, n, gen):
        # full blocks are drawn in place; the cut last one is copied
        if n == _BLOCK_UNITS * per_unit:
            _draw_block(gen, grid, per_unit, buf, out=out[first:first + n])
        else:
            out[first:first + n] = _draw_block(gen, grid, per_unit, buf)[:n]

    _run_blocks(sim, grid, run_block)
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
    scheduled = grid_atom >= 0
    out[scheduled] = atom_lams[grid_atom[scheduled]]
    return out


def _bliss(x: float, gamma: float, scale: float) -> float:
    if gamma <= 0.0:
        raise InvariantError("risk aversion must be positive")
    if scale <= 0.0:
        raise InvariantError("scale must be positive")
    return x + scale / gamma


def _gap_factors(increments: np.ndarray, lam_rows: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Factors 1 - u of (paths, rows, dim) increments, u = increment . direction.

    The gap to bliss after row r is the initial gap times the product
    of the factors up to r.  Written into out when given.
    """
    f = np.einsum("prd,rd->pr", increments, lam_rows, out=out)
    np.subtract(1.0, f, out=f)
    return f


def _terminal_gaps(f: np.ndarray, mmv: bool) -> tuple[np.ndarray, np.ndarray]:
    """Terminal gap factor and capped product of (paths, rows) factors.

    The gap factor is the product of all factors, and for the monotone
    kind of the factors up to the first one <= 0: wealth has reached
    bliss there and stays.  The capped product is the product of
    1 - min(u, 1) = max(f, 0), which is 0 on every path with such a
    factor.  The gap factor equals the last column of the running
    product in wealth_recursion bit for bit, as long as np.prod
    multiplies along the rows in the order np.cumprod does (the tests
    compare the two).
    """
    g = np.prod(f, axis=1)
    hit = np.flatnonzero(f.min(axis=1) <= 0.0)
    capped = g.copy()
    capped[hit] = 0.0
    if mmv and hit.size:
        fh = f[hit]
        first = (fh <= 0.0).argmax(axis=1)
        fh[np.arange(fh.shape[1])[None, :] > first[:, None]] = 1.0
        g[hit] = np.prod(fh, axis=1)
    return g, capped


def _path_factors(paths: PathSet, schedule) -> np.ndarray:
    lam_rows = _row_directions(paths.model, paths.seg_index,
                               paths.atom_index, schedule)
    return _gap_factors(paths.increments, lam_rows)


def wealth_recursion(paths: PathSet, schedule, kind, x: float = 0.0,
                     gamma: float = 1.0, scale: float = 1.0) -> np.ndarray:
    """Wealth paths of the gap strategy; shape (n_paths, n_rows + 1).

    Per row the invested amount is the direction times (bliss - W),
    clamped at zero for the monotone kind.  The defaults give the
    normalized problem: start at 0, bliss level 1.
    """
    mmv = _kind(kind) is UtilityKind.MMV
    bliss = _bliss(x, gamma, scale)
    w = np.empty((paths.n_paths, paths.n_rows + 1))
    w[:, 0] = x
    g = w[:, 1:]
    np.cumprod(_path_factors(paths, schedule), axis=1, out=g)
    if mmv:
        # freeze the running product at its first value <= 0
        crossed = g <= 0.0
        hit = np.flatnonzero(crossed.any(axis=1))
        first = crossed[hit].argmax(axis=1)
        del crossed
        later = np.arange(g.shape[1])[None, :] > first[:, None]
        g[hit] = np.where(later, g[hit, first][:, None], g[hit])
    g *= bliss - x
    np.subtract(bliss, g, out=g)
    return w


def capped_exponential(paths: PathSet, schedule) -> np.ndarray:
    """Terminal product of (1 - u∧1) per path, u the scaled increments.

    Equals (bliss - W_T)+ / (bliss - x) for the monotone recursion
    pathwise; also the unnormalized dual density candidate.
    """
    return _terminal_gaps(_path_factors(paths, schedule), mmv=False)[1]


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
                     solution: Solution | None = None) -> WealthStudy:
    """Simulate and reduce to terminal wealth without storing paths.

    Solves for the optimal schedule when none is passed.  Memory is
    O(n_paths + block size x n_rows), so large path counts are fine.
    """
    kind = _kind(kind)
    if solution is None:
        solution = solve_schedule(model, kind)
    grid = _Grid(model, sim.n_steps)
    lam_rows = _row_directions(model, grid.seg_index, grid.atom_index, solution)
    bliss = _bliss(x, gamma, scale)
    mmv = kind is UtilityKind.MMV

    w_t = np.empty(sim.n_paths)
    capped = np.empty(sim.n_paths)
    r_t = np.empty((sim.n_paths, grid.dim))
    per_unit = _unit_layout(sim)[1]

    def run_block(buf, first, n, gen):
        inc = _draw_block(gen, grid, per_unit, buf)[:n]
        span = slice(first, first + n)
        f = _gap_factors(inc, lam_rows, out=buf.factors[:n])
        g, capped[span] = _terminal_gaps(f, mmv)
        w_t[span] = bliss - (bliss - x) * g
        r_t[span] = inc.sum(axis=1)

    _run_blocks(sim, grid, run_block)
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
