"""Exact path simulation and the ceiling wealth recursion.

The gap strategy invests the direction times the gap below the bliss
level, clamped at zero for the monotone kind and unclamped for the
plain quadratic kind.  Its gap to bliss is the stochastic exponential
G = E(-lam . X) of the yield X.  Over a segment with zero-truncation
drift b0, covariance c = sigma sigma' and direction lam, between jumps
it is a geometric Brownian motion,

    G(s) = G(0) exp(-lam . (b0 s + sigma W_s) - lam' c lam s / 2),

and a jump x multiplies it by 1 - lam . x.  The monotone kind freezes G
at the first jump whose factor is <= 0: wealth has reached bliss there
and stays.  So the value at the horizon needs no step grid, only each
path's skeleton: the Brownian value at each segment's end and at every
jump time, and the jumps.  The continuous factor is taken once per
segment and the jump factors are multiplied one jump at a time, in time
order (Glasserman, Monte Carlo Methods in Financial Engineering, 2003,
section 3.5; Cont and Tankov, Financial Modelling with Jump Processes,
2004, chapter 6).

Determinism contract: paths are drawn in units (an antithetic pair of
paths, or one path), and units in blocks of _BLOCK_UNITS = 256.  Block
k draws from one counter-based Philox stream keyed by (seed, k) and
always draws all 256 units, however many paths are asked for; the last
block is cut to the path count.  Within a block the skeleton is drawn
first, in a fixed order:

1. one (units, diffusing segments, dim) array of normals, the Brownian
   value at each diffusing segment's end;
2. one (units, jumping segments) array of Poisson jump counts, one per
   unit and segment with a positive jump rate;
3. for each jumping segment in order, one uniform per jump, units in
   order, that places the jump uniformly in the segment, then the jump
   sizes in the same order;
4. one (units, scheduled jumps) array of uniforms that pick each
   scheduled jump's outcome;
5. one normal vector per jump time before the end of a diffusing
   segment (compound-Poisson and scheduled jumps, whether a scheduled
   jump moves or not), units in order and each unit's in time order:
   the Brownian value there, a sequential bridge from the jump before
   (or the segment start) toward the segment end.

run_wealth_study reduces the skeleton straight to the horizon, so its
output is a pure function of (seed, n_paths, antithetic): n_steps does
not enter it, and the first n paths of a study are the paths of the
n-path study.  simulate_paths draws, after the skeleton,

6. one (units with a path, rows of diffusing segments, dim) array of
   normals, one per row,

and fills the rows between two skeleton points of a unit with the
skeleton's own sequential bridge toward the later point, restarted at
each point.  So the paths are exact at every row, and a row that ends at
a segment end or a jump time takes the skeleton's value there (and uses
none of its normals).  One helper (_horizon) computes the gap at the
horizon from the skeleton for the study, for wealth_recursion's last
column and for capped_exponential, so these equal the study's bit for
bit by construction.

An antithetic unit is a pair of paths sharing every draw except the
sign of the normals.  Blocks run on up to _MAX_WORKERS = 8 worker
threads, at most one per usable core (numpy's draws and array passes
release the GIL): the study reduces runs of _STUDY_GROUP blocks at
once (fewer where many scheduled jumps widen the skeleton), the paths
and wealth_recursion one block at a time.  Each block writes only its
own span of the outputs, so output does not depend on the number of
cores, on which worker took which block or on how the blocks were
grouped.
"""
from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .aggregate import Solution, _split_schedule, solve_schedule
from .errors import InvariantError, UnsupportedMeasure
from .localutil import UtilityKind, _kind, _rowdot, utility
from .measures import _sorted_unique
from .model import MarketModel, small_jump_mean

# Units per block.  The block size is part of the stream layout: changing
# it changes every draw.
_BLOCK_UNITS = 256

# Most worker threads a run uses.
_MAX_WORKERS = 8

# Most blocks a study reduces at once, each drawn from its own stream.
# One block's skeleton is a few small arrays, whose passes hold the GIL;
# over 64 blocks they release it, so worker threads pay (on a 2-core
# host, 8 blocks per run made two workers slower than one).
_STUDY_GROUP = 64

# Most values per array of a study's run of skeletons (4 MB): a skeleton
# is as wide as its scheduled jumps plus its unit's most Poisson jumps,
# so many scheduled jumps take fewer blocks per run, down to one.
_STUDY_VALUES = 1 << 19

# Values per pass of the row loops (256 KB), so that a pass stays in cache.
_CHUNK = 1 << 15

# Sign of the normals of a unit's paths: the antithetic partner flips them.
_SIGNS = np.array([1.0, -1.0])


@dataclass(frozen=True)
class SimConfig:
    """Simulation size and reproducibility parameters.

    n_steps counts the observation steps per segment of simulate_paths;
    scheduled jumps get extra zero-length rows of their own.  The
    study draws no step grid, so its output is a pure function of
    (seed, n_paths, antithetic); paths depend on n_steps too.
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


class _Plan:
    """The model as a block of draws reads it.

    Per segment: its start and length, the zero-truncation drift b0, a
    square root vol of the covariance (zero without diffusion), and for
    a positive jump rate the mean jump count and the law.  Each
    scheduled jump sits in the segment whose (t_start, t_end] holds its
    time, at time sched_s within it.
    """

    def __init__(self, model: MarketModel):
        self.dim = d = model.dim
        segs = model.segments
        self.n_seg = n_seg = len(segs)
        self.t_start = np.array([seg.t_start for seg in segs], dtype=float)
        self.t_end = np.array([seg.t_end for seg in segs], dtype=float)
        self.length = np.array([seg.length for seg in segs], dtype=float)
        self.b0 = np.zeros((n_seg, d))
        self.cov = np.zeros((n_seg, d, d))
        self.vol = np.zeros((n_seg, d, d))
        self.diffusing = np.zeros(n_seg, dtype=bool)
        self.jumping = []           # (segment, mean count, law)
        for i, seg in enumerate(segs):
            chars = seg.chars
            jumps = chars.jumps
            rate = 0.0 if jumps is None else jumps.total_mass()
            if not math.isfinite(rate):
                raise UnsupportedMeasure(
                    "infinite-activity jump measure cannot be simulated")
            self.b0[i] = np.atleast_1d(chars.b_trunc) - small_jump_mean(chars)
            self.cov[i] = np.atleast_2d(chars.cov)
            if np.any(self.cov[i]):
                w, v = np.linalg.eigh(self.cov[i])
                self.vol[i] = v * np.sqrt(np.clip(w, 0.0, None))
                self.diffusing[i] = True
            if rate > 0.0:
                self.jumping.append((i, rate * seg.length, jumps))

        table = model.atoms
        self.jumps = table
        self.sched_seg = np.minimum(np.searchsorted(self.t_end, table.times), n_seg - 1)
        self.sched_s = table.times - self.t_start[self.sched_seg]
        # scheduled jumps before the end of a diffusing segment, each a
        # bridge point of the skeleton
        self.n_inner_sched = int(np.sum(self.diffusing[self.sched_seg]
                                        & (self.sched_s < self.length[self.sched_seg])))
        # The scheduled jumps in time order (at one instant, in table
        # order), keyed (segment, time) as complex numbers: numpy orders
        # those lexicographically, so one searchsorted places a
        # compound-Poisson jump among them.
        self.sched_order = np.lexsort((np.arange(len(table)), self.sched_s, self.sched_seg))
        self.sched_keys = (self.sched_seg + 1j * self.sched_s)[self.sched_order]
        # Each jump's cumulative masses, summed within the jump as np.cumsum
        # sums one law, keyed (jump, cumulative mass) the same way, so one
        # searchsorted finds every jump's outcome.
        cum = table.masses.copy()
        rank = np.arange(cum.size) - table.offsets[table.row]
        for k in range(1, int(rank.max(initial=0)) + 1):
            at = np.flatnonzero(rank == k)
            cum[at] += cum[at - 1]
        self.atom_keys = table.row + 1j * cum

    def level(self, seg, s, brown, per_unit: int) -> np.ndarray:
        """Continuous part b0 s + sigma W_s of the yield since the start of
        segment seg, for brown = W_s; the antithetic partner takes -W_s.
        Shape brown.shape[:-1] + (per_unit, dim)."""
        drift = self.b0[seg] * np.asarray(s)[..., None]
        shock = _rowdot(self.vol[seg], brown[..., None, :])
        return drift[..., None, :] + _SIGNS[:per_unit, None] * shock[..., None, :]


class _Skeleton:
    """One block's skeleton, per unit.

    end holds the Brownian value at each segment's end (0 without
    diffusion).  The jumps are (units, K) arrays, each unit's in time
    order and padded after its last: valid marks the real ones, seg and
    s place them, src is the row of their direction in _Way.dirs (the
    segment, n_seg + the scheduled jump, or the zero row on padding),
    size is the jump (0 where a scheduled jump does not move) and brown
    the Brownian value at its time.  sched_col is the column of each
    scheduled jump.
    """

    def __init__(self, end, valid, seg, s, src, size, brown, sched_col):
        self.end, self.valid, self.seg, self.s = end, valid, seg, s
        self.src, self.size, self.brown, self.sched_col = src, size, brown, sched_col


def _draw_skeleton(gens, plan: _Plan) -> _Skeleton:
    """Draws 1-5 of the module docstring for a run of consecutive blocks,
    one generator each; the skeleton holds their units in block order."""
    units, d, n_seg = _BLOCK_UNITS * len(gens), plan.dim, plan.n_seg
    table = plan.jumps
    n_sched = len(table)
    n_diff = int(plan.diffusing.sum())
    ends, counts, sched_u, bridge_z = [], [], [], []
    cp_s = [[] for _ in plan.jumping]
    cp_size = [[] for _ in plan.jumping]
    for gen in gens:
        if n_diff:
            ends.append(gen.standard_normal((_BLOCK_UNITS, n_diff, d)))
        n_inner = _BLOCK_UNITS * plan.n_inner_sched
        if plan.jumping:
            c = gen.poisson([mean for _, mean, _ in plan.jumping],
                            size=(_BLOCK_UNITS, len(plan.jumping)))
            counts.append(c)
            for j, (i, _, law) in enumerate(plan.jumping):
                total = int(c[:, j].sum())
                if total == 0:
                    continue
                cp_s[j].append(plan.length[i] * gen.random(total))
                cp_size[j].append(np.asarray(law.sample(gen, total), dtype=float).reshape(total, d))
                n_inner += total if plan.diffusing[i] else 0
        if n_sched:
            sched_u.append(gen.random((_BLOCK_UNITS, n_sched)))
        if n_inner:
            bridge_z.append(gen.standard_normal((n_inner, d)))

    end = np.zeros((units, n_seg, d))
    if n_diff:
        end[:, plan.diffusing] = (np.concatenate(ends)
                                  * np.sqrt(plan.length[plan.diffusing])[None, :, None])
    every = np.arange(units)
    cp_unit, cp_seg = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    if plan.jumping:
        counts = np.concatenate(counts)
        for j, (i, _, _) in enumerate(plan.jumping):
            cp_unit.append(np.repeat(every, counts[:, j]))
            cp_seg.append(np.full(cp_unit[-1].size, i))
    cp_unit, cp_seg = np.concatenate(cp_unit), np.concatenate(cp_seg)
    cp_s = np.concatenate([np.empty(0)] + [x for part in cp_s for x in part])
    cp_size = np.concatenate([np.empty((0, d))] + [x for part in cp_size for x in part])
    order = np.lexsort((cp_s, cp_seg, cp_unit))
    cp_unit, cp_seg, cp_s, cp_size = cp_unit[order], cp_seg[order], cp_s[order], cp_size[order]

    sched_size = np.zeros((units, n_sched, d))
    if n_sched:
        u = np.concatenate(sched_u)
        k = np.searchsorted(plan.atom_keys, np.arange(n_sched) + 1j * u, side="right")
        hit = k < table.offsets[1:]
        sched_size[hit] = table.points[k[hit]]

    # merge each unit's compound-Poisson jumps into the scheduled ones
    n_cp = np.bincount(cp_unit, minlength=units)
    col = np.arange(cp_unit.size) - (np.cumsum(n_cp) - n_cp)[cp_unit]
    width = n_sched + int(n_cp.max(initial=0))
    sched_col = np.empty((units, n_sched), dtype=np.intp)
    if n_sched:
        before = np.searchsorted(plan.sched_keys, cp_seg + 1j * cp_s)
        col += before
        ahead = np.bincount(cp_unit * (n_sched + 1) + before, minlength=units * (n_sched + 1))
        ahead = ahead.reshape(units, n_sched + 1).cumsum(axis=1)[:, :n_sched]
        sched_col[:, plan.sched_order] = np.arange(n_sched) + ahead
    valid = np.zeros((units, width), dtype=bool)
    seg = np.zeros((units, width), dtype=np.intp)
    s = np.zeros((units, width))
    src = np.full((units, width), n_seg + n_sched)
    size = np.zeros((units, width, d))
    at = (cp_unit, col)
    valid[at], seg[at], s[at], src[at], size[at] = True, cp_seg, cp_s, cp_seg, cp_size
    at = (every[:, None], sched_col)
    valid[at], seg[at], s[at], src[at], size[at] = (True, plan.sched_seg, plan.sched_s,
                                                    n_seg + np.arange(n_sched), sched_size)

    brown = np.zeros((units, width, d))
    diffusing = valid & plan.diffusing[seg]
    inner = diffusing & (s < plan.length[seg])
    if bridge_z:
        z = np.zeros((units, width, d))
        z[inner] = np.concatenate(bridge_z)
        for i in np.flatnonzero(plan.diffusing):
            here = inner & (seg == i)
            if not here.any():
                continue
            # The sequential bridge toward the segment end, solved in
            # closed form: (W_L - W_s) / (L - s) is a Brownian motion in
            # the clock 1 / (L - s), so one cumulative sum per unit draws
            # every jump time's value.
            length = plan.length[i]
            prev = np.zeros((units, width))
            prev[:, 1:] = np.where(here[:, :-1], s[:, :-1], 0.0)
            clock = np.zeros((units, width))
            clock[here] = (s[here] - prev[here]) / ((length - s[here]) * (length - prev[here]))
            w_end = end[:, i, None, :]
            slope = w_end / length - np.cumsum(z * np.sqrt(clock)[..., None], axis=1)
            brown[here] = (w_end - (length - s)[..., None] * slope)[here]
    last = diffusing & ~inner
    brown[last] = end[np.nonzero(last)[0], seg[last]]
    return _Skeleton(end, valid, seg, s, src, size, brown, sched_col)


class _Way:
    """A schedule as the skeleton reads it: per segment the direction lam
    and lam' c lam / 2, and one direction row per jump source."""

    def __init__(self, plan: _Plan, model: MarketModel, schedule):
        seg_lams, atom_lams = _split_schedule(model, schedule)
        d = plan.dim
        self.lam = np.array(seg_lams, dtype=float).reshape(plan.n_seg, d)
        self.half_q = np.array([0.5 * float(lam @ cov @ lam)
                                for lam, cov in zip(self.lam, plan.cov)])
        self.dirs = np.concatenate([self.lam, np.asarray(atom_lams, dtype=float).reshape(-1, d),
                                    np.zeros((1, d))])


class _Horizon:
    """One block's gaps, per path (units * per_unit, unit-major).

    gap is the gap factor at the horizon (for the monotone kind, frozen
    at the first jump factor <= 0), capped the same with every factor
    capped at 0 (so 0 wherever a factor is <= 0), and log_gap minus the
    log of the continuous factor at each segment start and at the
    horizon.  Per unit, running is the running product of the jump
    factors and first the column of the first one <= 0 (-1 if none).
    """

    def __init__(self, gap, capped, log_gap, running, first):
        self.gap, self.capped, self.log_gap = gap, capped, log_gap
        self.running, self.first = running, first


def _horizon(sk: _Skeleton, plan: _Plan, way: _Way, per_unit: int, mmv: bool) -> _Horizon:
    units = sk.end.shape[0]
    ends = plan.level(np.arange(plan.n_seg), plan.length, sk.end, per_unit)
    log_gap = np.zeros((units, per_unit, plan.n_seg + 1))
    for i in range(plan.n_seg):
        log_gap[..., i + 1] = log_gap[..., i] + (
            _rowdot(ends[:, i], way.lam[i]) + way.half_q[i] * plan.length[i])
    f = 1.0 - _rowdot(sk.size, way.dirs[sk.src])
    running = np.cumprod(f, axis=1)
    total = running[:, -1] if running.shape[1] else np.ones(units)
    gap = np.exp(-log_gap[..., -1]) * total[:, None]
    hit = f <= 0.0
    crossed = hit.any(axis=1)
    first = np.where(crossed, hit.argmax(axis=1), -1) if hit.shape[1] else np.full(units, -1)
    capped = np.where(crossed[:, None], 0.0, gap)
    if mmv and crossed.any():
        u = np.flatnonzero(crossed)
        k = first[u]
        seg, s = sk.seg[u, k], sk.s[u, k]
        level = plan.level(seg, s, sk.brown[u, k], per_unit)
        ell = log_gap[u, :, seg] + (_rowdot(level, way.lam[seg][:, None, :])
                                    + (way.half_q[seg] * s)[:, None])
        gap[u] = np.exp(-ell) * running[u, k][:, None]
    return _Horizon(gap.reshape(-1), capped.reshape(-1),
                    log_gap.reshape(units * per_unit, -1), running, first)


def _block_generator(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _unit_layout(sim: SimConfig) -> tuple[int, int]:
    """Number of units and paths per unit for the configured pairing."""
    if sim.antithetic:
        return (sim.n_paths + 1) // 2, 2
    return sim.n_paths, 1


def _worker_count(n_runs: int) -> int:
    """Worker threads for n_runs runs of blocks: min(usable cores, runs, cap)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, n_runs, _MAX_WORKERS))


def _on_workers(n_tasks: int, run) -> None:
    """Call run(k) for k in range(n_tasks) on _worker_count workers.

    A single worker is the calling thread.  The first exception a worker
    raises stops the others from taking tasks, and is re-raised here
    once every worker has stopped.
    """
    n_workers = _worker_count(n_tasks)
    if n_workers == 1:
        for k in range(n_tasks):
            run(k)
        return
    todo = iter(range(n_tasks))
    lock = threading.Lock()
    errors = []

    def work():
        try:
            while not errors:
                with lock:
                    k = next(todo, None)
                if k is None:
                    return
                run(k)
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


def _run_blocks(sim: SimConfig, run, group: int = 1) -> None:
    """Call run(first, paths, gens) for every run of `group` consecutive
    blocks (the last run may be shorter), on _on_workers.

    first is the run's first path index, paths its path count (the last
    block is cut to the path count) and gens the Philox streams of its
    blocks, in order.
    """
    n_units, per_unit = _unit_layout(sim)
    n_blocks = -(-n_units // _BLOCK_UNITS)
    block_paths = _BLOCK_UNITS * per_unit
    starts = range(0, n_blocks, group)

    def run_group(t):
        k = starts[t]
        blocks = range(k, min(k + group, n_blocks))
        first = k * block_paths
        run(first, min(len(blocks) * block_paths, sim.n_paths - first),
            [_block_generator(sim.seed, b) for b in blocks])

    _on_workers(len(starts), run_group)


class _Grid:
    """Rows of the observation grid: per segment n_steps equal steps, split
    at the scheduled jumps inside it, and one zero-length row per
    scheduled jump after the steps that end at its time.  A scheduled
    jump's row belongs to the segment whose (t_start, t_end] holds its
    time, so each segment's rows are one contiguous span, seg_rows[i],
    whose row-end times within the segment are times[i]."""

    def __init__(self, plan: _Plan, n_steps: int):
        table = plan.jumps
        ends, starts, seg = [], [], []
        for i in range(plan.n_seg):
            edges = np.linspace(plan.t_start[i], plan.t_end[i], n_steps + 1)
            inner = table.times[(plan.sched_seg == i) & (plan.sched_s < plan.length[i])]
            if inner.size:
                edges = _sorted_unique(np.concatenate([edges, inner]))
            ends.append(edges[1:])
            starts.append(edges[:-1])
            seg.append(np.full(edges.size - 1, i))
        ends, starts, seg = (np.concatenate(a) for a in (ends, starts, seg))
        # the steps, then the scheduled jumps, in time order: steps sort
        # before a jump scheduled at the same instant, and jumps at one
        # instant stay in table order
        t_end = np.concatenate([ends, table.times])
        tie = np.repeat([0, 1], [ends.size, len(table)])
        order = np.lexsort((tie, t_end))
        self.n_rows = t_end.size
        self.t_end = t_end[order]
        self.dt = np.concatenate([ends - starts, np.zeros(len(table))])[order]
        self.seg_index = np.concatenate([seg, np.full(len(table), -1)])[order]
        self.atom_index = np.concatenate([np.full(ends.size, -1), np.arange(len(table))])[order]
        self.sched_row = np.argsort(order)[ends.size:]
        row_seg = np.concatenate([seg, plan.sched_seg])[order]
        bounds = np.searchsorted(row_seg, np.arange(plan.n_seg + 1))
        self.seg_rows = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self.times = [self.t_end[span] - t0 for span, t0 in zip(self.seg_rows, plan.t_start)]

    def jump_rows(self, sk: _Skeleton, plan: _Plan) -> np.ndarray:
        """The row of every jump of a skeleton (n_rows on padding)."""
        rows = np.full(sk.valid.shape, self.n_rows, dtype=np.intp)
        for i, span in enumerate(self.seg_rows):
            cp = sk.valid & (sk.src == i)
            rows[cp] = span.start + np.searchsorted(self.times[i], sk.s[cp])
        rows[np.arange(sk.valid.shape[0])[:, None], sk.sched_col] = self.sched_row
        return rows


def _bridge(gen: np.random.Generator, plan: _Plan, grid: _Grid, sk: _Skeleton,
            z: np.ndarray, m: int) -> dict:
    """Draws 6 of the module docstring for the first m units of a block and
    bridges them: the diffusion part sigma W of the yield at the end of
    every row of each diffusing segment; per segment a (dim, m, rows)
    array.

    Between two skeleton points a < b of a unit (the segment start, its
    jump times, its end) the rows follow the skeleton's sequential
    bridge: Y_t = (W_b - W_t) / (b - t) is a Brownian motion in the clock
    1 / (b - t), started at (W_b - W_a) / (b - a), so a cumulative sum of
    the row normals, restarted at each point, draws every row at once.
    A row that ends at a point takes its value and uses none of its
    normals.

    z is the (units, rows of diffusing segments, dim) array the grid
    normals are drawn into; a worker reuses it for every block, which
    saves the page faults of a fresh array, and it becomes the output in
    place.
    """
    out = {}
    diffusing = np.flatnonzero(plan.diffusing)
    if not diffusing.size:
        return out
    d = plan.dim
    z = z[:m]
    gen.standard_normal(out=z)
    z = np.moveaxis(z, -1, 0)
    seg, s = sk.seg[:m], sk.s[:m]
    inner = sk.valid[:m] & plan.diffusing[seg] & (s < plan.length[seg])
    offset = 0
    for i in diffusing:
        s_i = grid.times[i]
        n_i, length = s_i.size, plan.length[i]
        w = z[:, :, offset:offset + n_i]
        offset += n_i
        # each unit's points in time order, padded with the segment end
        here = inner & (seg == i)
        n_knots = int(here.sum(axis=1).max(initial=0)) + 2
        times = np.full((m, n_knots), length)
        times[:, 0] = 0.0
        value = np.empty((d, m, n_knots))
        value[:] = sk.end[:m, i].T[:, :, None]
        value[:, :, 0] = 0.0
        u, k = np.nonzero(here)
        j = np.cumsum(here, axis=1)[u, k]
        times[u, j] = s[u, k]
        value[:, u, j] = sk.brown[u, k].T
        # The rows after one point, up to and including the next, are
        # bridged toward the next, each from the row before it or from
        # the point, whichever is later.  No row lies between two points
        # at one time (the padding, or jumps at one instant).
        upto = np.searchsorted(s_i, times, side="right")
        covers = np.diff(upto, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            y_start = np.diff(value, axis=2) / np.diff(times, axis=1)
        since = np.concatenate([[0.0], s_i[:-1]])
        step = max(1, _CHUNK // n_i)
        for u0 in range(0, m, step):
            part = slice(u0, u0 + step)
            cover = covers[part].ravel()

            def per_row(a):
                return np.repeat(a.ravel(), cover).reshape(-1, n_i)

            b = per_row(times[part, 1:])
            t0 = np.maximum(per_row(times[part, :-1]), since)
            left = b - s_i
            scale = np.zeros_like(left)
            np.divide(s_i - t0, left * (b - t0), out=scale, where=left > 0.0)
            np.sqrt(scale, out=scale)
            first = upto[part, :-1]
            for c in range(d):
                walk = w[c, part] * scale
                np.cumsum(walk, axis=1, out=walk)
                before = np.where(first > 0, np.take_along_axis(walk, first - 1, axis=1), 0.0)
                walk -= per_row(y_start[c, part] + before)
                walk *= left
                np.add(walk, per_row(value[c, part, 1:]), out=w[c, part])
        if d == 1:
            w *= plan.vol[i][0, 0]
        else:
            w = np.einsum("jc,cur->jur", plan.vol[i], w)
        out[i] = w
    return out


@dataclass(frozen=True)
class PathSet:
    """Exact paths on the observation grid, one row per time slice.

    levels has shape (n_paths, n_rows, dim): the continuous part of the
    yield (drift and diffusion) since the start of the row's segment, at
    the row's end.  increments, of the same shape, are the yield
    increments per row, jumps included, built on first use.  Rows with
    seg_index >= 0 are steps of that segment; rows with atom_index >= 0
    are scheduled jumps (dt = 0).
    """

    levels: np.ndarray
    t_end: np.ndarray
    dt: np.ndarray
    seg_index: np.ndarray
    atom_index: np.ndarray
    model: MarketModel
    config: SimConfig
    # per block (first path, path count, skeleton, row of each jump), and
    # the model and grid as the draws read them
    _blocks: tuple = field(repr=False, compare=False)
    _plan: _Plan = field(repr=False, compare=False)
    _grid: _Grid = field(repr=False, compare=False)

    @property
    def n_paths(self) -> int:
        return self.levels.shape[0]

    @property
    def n_rows(self) -> int:
        return self.levels.shape[1]

    @functools.cached_property
    def increments(self) -> np.ndarray:
        lv, grid = self.levels, self._grid
        inc = np.empty_like(lv)
        np.subtract(lv[:, 1:], lv[:, :-1], out=inc[:, 1:])
        starts = [span.start for span in grid.seg_rows]
        inc[:, starts] = lv[:, starts]
        inc[:, grid.sched_row] = 0.0
        per_unit = _unit_layout(self.config)[1]
        for first, n, sk, rows in self._blocks:
            u, k = np.nonzero(sk.valid)
            for j in range(per_unit):
                path = u * per_unit + j
                keep = path < n
                np.add.at(inc, (first + path[keep], rows[u[keep], k[keep]]),
                          sk.size[u[keep], k[keep]])
        return inc


def simulate_paths(model: MarketModel, sim: SimConfig) -> PathSet:
    """Simulate exact paths of the yield process on the observation grid.

    Materializes the (n_paths, n_rows, dim) levels; for large studies
    prefer run_wealth_study, which keeps only terminal quantities.
    """
    plan = _Plan(model)
    grid = _Grid(plan, sim.n_steps)
    n_bytes = sim.n_paths * grid.n_rows * plan.dim * 8
    if n_bytes > 2 ** 31:
        raise InvariantError(
            "path set too large to materialize; use run_wealth_study")
    levels = np.empty((sim.n_paths, grid.n_rows, plan.dim))
    per_unit = _unit_layout(sim)[1]
    block_paths = _BLOCK_UNITS * per_unit
    blocks = [None] * -(-_unit_layout(sim)[0] // _BLOCK_UNITS)
    local = threading.local()
    n_normals = sum(grid.times[i].size for i in np.flatnonzero(plan.diffusing))

    def run_block(first, n, gens):
        z = getattr(local, "z", None)
        if z is None:
            z = local.z = np.empty((_BLOCK_UNITS, n_normals, plan.dim))
        sk = _draw_skeleton(gens, plan)
        m = -(-n // per_unit)       # units with a path in the run
        shock = _bridge(gens[0], plan, grid, sk, z, m)
        # whole units are written in place; a cut last unit is copied
        full = n == m * per_unit
        out = levels[first:first + n] if full else np.empty((m * per_unit,) + levels.shape[1:])
        pair = out.reshape(m, per_unit, grid.n_rows, plan.dim)
        for i, rows in enumerate(grid.seg_rows):
            drift = plan.b0[i][:, None] * grid.times[i]
            if i not in shock:
                pair[:, :, rows] = drift.T
                continue
            for j in range(plan.dim):
                for p, op in zip(range(per_unit), (np.add, np.subtract)):
                    op(drift[j], shock[i][j], out=pair[:, p, rows, j])
        if not full:
            levels[first:first + n] = out[:n]
        blocks[first // block_paths] = (first, n, sk, grid.jump_rows(sk, plan))

    _run_blocks(sim, run_block)
    return PathSet(levels=levels, t_end=grid.t_end, dt=grid.dt,
                   seg_index=grid.seg_index, atom_index=grid.atom_index,
                   model=model, config=sim, _blocks=tuple(blocks), _plan=plan, _grid=grid)


def _bliss(x: float, gamma: float, scale: float) -> float:
    if gamma <= 0.0:
        raise InvariantError("risk aversion must be positive")
    if scale <= 0.0:
        raise InvariantError("scale must be positive")
    return x + scale / gamma


def wealth_recursion(paths: PathSet, schedule, kind, x: float = 0.0,
                     gamma: float = 1.0, scale: float = 1.0) -> np.ndarray:
    """Wealth paths of the gap strategy; shape (n_paths, n_rows + 1).

    Per row the invested amount is the direction times (bliss - W),
    clamped at zero for the monotone kind, so bliss - W is the initial
    gap times the continuous factor to the row's end times the running
    product of the jump factors up to it, and for the monotone kind
    stays at its value at the first factor <= 0.  The last column is the
    study's horizon value.  The defaults give the normalized problem:
    start at 0, bliss level 1.
    """
    mmv = _kind(kind) is UtilityKind.MMV
    bliss = _bliss(x, gamma, scale)
    plan, grid = paths._plan, paths._grid
    way = _Way(plan, paths.model, schedule)
    per_unit = _unit_layout(paths.config)[1]
    n_rows, d = paths.n_rows, plan.dim
    w = np.empty((paths.n_paths, n_rows + 1))
    w[:, 0] = x
    # exp(-lam'c lam s / 2) at each row, times minus the initial gap
    row_factor = -(bliss - x) * np.exp(-np.concatenate(
        [h * t for h, t in zip(way.half_q, grid.times)]))

    def reduce(b):
        first, n, sk, jump_rows = paths._blocks[b]
        h = _horizon(sk, plan, way, per_unit, mmv)
        horizon = bliss - (bliss - x) * h.gap[:n]      # as the study takes it
        units, width = sk.valid.shape
        running = np.concatenate([np.ones((units, 1)), h.running], axis=1)
        covers = np.diff(jump_rows, axis=1, prepend=0, append=n_rows)   # rows per product
        frozen = np.full(units, n_rows)
        if mmv:
            crossed = np.flatnonzero(h.first >= 0)
            frozen[crossed] = jump_rows[crossed, h.first[crossed]]
        # a few units at a time, so that the passes over their rows stay in cache
        step = max(1, _CHUNK // (per_unit * n_rows))
        for u0 in range(0, min(units, -(-n // per_unit)), step):
            u1 = min(u0 + step, units)
            p0, p1 = u0 * per_unit, min(u1 * per_unit, n)
            g = w[first + p0:first + p1, 1:]
            levels = paths.levels[first + p0:first + p1]
            # bliss - W = exp(-lam . level - the log gap at the segment start)
            # x the row factor x the running product of the unit's jumps
            for i, rows in enumerate(grid.seg_rows):
                part = g[:, rows]
                np.multiply(levels[:, rows, 0], -way.lam[i, 0], out=part)
                for c in range(1, d):
                    part -= levels[:, rows, c] * way.lam[i, c]
                if i:
                    part -= h.log_gap[p0:p1, i, None]
            np.exp(g, out=g)
            factor = row_factor
            if width:
                factor = np.repeat(running[u0:u1].ravel(), covers[u0:u1].ravel())
                factor = factor.reshape(u1 - u0, n_rows) * row_factor
            for j in range(per_unit):
                part = g[j::per_unit]
                part *= factor[:part.shape[0]] if width else factor
            g += bliss
            start = np.repeat(frozen[u0:u1], per_unit)[:p1 - p0]
            held = np.flatnonzero(start < n_rows)
            if held.size:
                later = np.arange(n_rows) >= start[held, None]
                g[held] = np.where(later, horizon[p0 + held, None], g[held])
            g[:, -1] = horizon[p0:p1]

    _on_workers(len(paths._blocks), reduce)
    return w


def capped_exponential(paths: PathSet, schedule) -> np.ndarray:
    """Terminal product of (1 - u∧1) per path over the path's jumps and
    continuous factor, from the skeleton alone.

    Equals (bliss - W_T)+ / (bliss - x) for the monotone recursion
    pathwise; also the unnormalized dual density candidate.
    """
    way = _Way(paths._plan, paths.model, schedule)
    per_unit = _unit_layout(paths.config)[1]
    out = np.empty(paths.n_paths)
    for first, n, sk, _ in paths._blocks:
        out[first:first + n] = _horizon(sk, paths._plan, way, per_unit, False).capped[:n]
    return out


@dataclass(frozen=True)
class WealthStudy:
    """Terminal quantities of a streamed simulation run."""

    terminal_wealth: np.ndarray        # (n_paths,)
    capped_exponential: np.ndarray     # (n_paths,) dual density numerator
    terminal_increment: np.ndarray     # (n_paths, dim) yield at the horizon
    kind: UtilityKind
    bliss: float
    config: SimConfig


def run_wealth_study(model: MarketModel, sim: SimConfig, kind,
                     x: float = 0.0, gamma: float = 1.0, scale: float = 1.0,
                     solution: Solution | None = None) -> WealthStudy:
    """Simulate and reduce each skeleton to terminal wealth.

    Solves for the optimal schedule when none is passed.  Memory is
    O(n_paths) plus one run's skeleton per worker: its arrays hold about
    _STUDY_VALUES values each, or one block's if that is more.
    """
    kind = _kind(kind)
    if solution is None:
        solution = solve_schedule(model, kind)
    plan = _Plan(model)
    way = _Way(plan, model, solution)
    bliss = _bliss(x, gamma, scale)
    mmv = kind is UtilityKind.MMV

    w_t = np.empty(sim.n_paths)
    capped = np.empty(sim.n_paths)
    r_t = np.empty((sim.n_paths, plan.dim))
    per_unit = _unit_layout(sim)[1]
    all_segs = np.arange(plan.n_seg)

    def run(first, n, gens):
        sk = _draw_skeleton(gens, plan)
        h = _horizon(sk, plan, way, per_unit, mmv)
        span = slice(first, first + n)
        w_t[span] = bliss - (bliss - x) * h.gap[:n]
        capped[span] = h.capped[:n]
        # the yield at the horizon: continuous parts, then the jumps, each
        # summed in order
        ends = plan.level(all_segs, plan.length, sk.end, per_unit)
        total = ends[:, 0]
        for i in range(1, plan.n_seg):
            total = total + ends[:, i]
        if sk.size.shape[1]:
            total = total + np.cumsum(sk.size, axis=1)[:, -1, None]
        r_t[span] = total.reshape(-1, plan.dim)[:n]

    # a skeleton's width: the scheduled jumps, the mean Poisson count and
    # one more (the unit with the most Poisson jumps sets it, a few more)
    width = len(plan.jumps) + sum(mean for _, mean, _ in plan.jumping) + 1.0
    group = int(_STUDY_VALUES // (_BLOCK_UNITS * width * plan.dim))
    _run_blocks(sim, run, min(max(group, 1), _STUDY_GROUP))
    return WealthStudy(terminal_wealth=w_t, capped_exponential=capped,
                       terminal_increment=r_t, kind=kind, bliss=bliss, config=sim)


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
