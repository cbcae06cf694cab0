"""Exact path simulation and the normalized wealth of the gap strategy.

Wealth is normalized: it starts at 0 and its bliss level is 1.  The gap
strategy invests the direction times the gap 1 - W, clamped at zero for
the monotone kind and unclamped for the plain quadratic kind, so the gap
is the stochastic exponential G = E(-lam . X) of the yield X.  Over a
segment with zero-truncation drift b0, covariance c = sigma sigma' and
direction lam, between jumps it is a geometric Brownian motion,

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
   jump moves or not), units in order and each unit's in time order.

run_wealth_study reduces the skeleton straight to the horizon, so its
output is a pure function of (seed, n_paths, antithetic): n_steps does
not enter it, and the first n paths of a study are the paths of the
n-path study.  simulate_paths draws, after the skeleton,

6. one (units with a path, rows of diffusing segments, dim) array of
   normals, one per row.

One sequential Brownian bridge (_sequential_bridge) places every value
inside a segment: the skeleton's at its real jump times, the units' one
after another, toward the segment end, and the grid's at its row ends,
toward the next skeleton point.  So the paths are exact at every row,
and a row that ends at a segment end or a jump time takes the skeleton's
value there (and uses none of its normals).  Each block's jumps are
placed on the grid rows once, for the bridge, the increments and
wealth_recursion.  One helper (_horizon) computes the gap at the horizon
from the skeleton for the study, wealth_recursion's last column and
capped_exponential, so these equal the study's bit for bit.

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
import numbers
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

# Values per pass of the row loops (512 KB): a pass stays in a core's cache,
# and fewer passes make fewer small numpy calls, which hold the GIL.
_CHUNK = 1 << 16

# Sign of the normals of a unit's paths: the antithetic partner flips them.
_SIGNS = np.array([1.0, -1.0])


@dataclass(frozen=True)
class SimConfig:
    """Simulation size and reproducibility parameters.

    n_steps counts the observation steps per segment of simulate_paths;
    scheduled jumps get extra zero-length rows of their own.  The
    study draws no step grid, so its output is a pure function of
    (seed, n_paths, antithetic); paths depend on n_steps too.  The
    counts and the seed are integers (numpy's included, bools not), the
    seed one of the 2^64 Philox keys, and antithetic a bool, checked here.
    """

    n_paths: int
    n_steps: int = 2000
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        for name in ("n_paths", "n_steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral):
                raise InvariantError(f"{name} must be an integer")
        if not isinstance(self.antithetic, (bool, np.bool_)):
            raise InvariantError("antithetic must be a bool")
        if self.n_paths < 1:
            raise InvariantError("n_paths must be at least 1")
        if self.n_steps < 1:
            raise InvariantError("n_steps must be at least 1")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise InvariantError("seed must lie in [0, 2**64)")


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


def _sequential_bridge(z, t, knot_t, knot_w, cover) -> np.ndarray:
    """Brownian values at times t in a segment, in place on z (a normal per
    time), with W = 0 at the segment start.

    z is (dim, units, times), every unit at the times t, or (dim, times),
    the units' times one after another in t.  A unit's times run in order,
    in bridges of cover[u, k] times toward its points (knot_t, knot_w)[u, k],
    one bridge per unit in the second layout, summed in a (units, most times)
    table.  Between points a < b, with Y_a = (W_b - W_a) / (b - a) and t0 the
    time before t (a at a bridge's first), W_t = W_b - (b - t) (Y_a - sum z
    sqrt((t - t0) / ((b - t) (b - t0)))) summed over the bridge up to t:
    (W_b - W_t) / (b - t) is a Brownian motion in the clock 1 / (b - t).  b - t0
    is the time before's b - t; a time at b takes W_b (scale 0), no normal.
    """
    dense = z.ndim == 3
    nz = np.flatnonzero(cover)          # the bridges with a time, in order
    rep, u = cover.ravel()[nz], nz // cover.shape[1]
    i = nz + u                          # a bridge's start among the knots padded with 0
    kt = np.concatenate([np.zeros((len(knot_t), 1)), knot_t], axis=1).ravel()
    kw = np.concatenate([np.zeros(knot_w.shape[:-1] + (1,)), knot_w], -1).reshape(len(knot_w), -1)
    a, span = kt[i], kt[i + 1] - kt[i]
    # a bridge's first time along its unit or all the times; at: its flat index
    first = np.cumsum(cover, axis=1 if dense else None).ravel()[nz] - rep
    at = first + u * z.shape[-1] if dense else first

    def per_time(v):        # one value per bridge, repeated over its times
        return np.repeat(v, rep, axis=-1).reshape(v.shape[:-1] + z.shape[1:])

    left = per_time(kt[i + 1])
    left -= t
    lf, den = left.reshape(-1), np.empty_like(left)
    df = den.reshape(-1)
    np.multiply(lf[1:], lf[:-1], out=df[1:])
    df[at] = first_den = lf[at] * span
    # den is 0 exactly where left is, and so is the scale there
    np.divide(np.diff(t, prepend=0.0), den, out=den, where=left > 0.0)
    df[at] = np.divide(t[first] - a, first_den, out=np.zeros_like(a), where=lf[at] > 0.0)
    z *= np.sqrt(den, out=den)
    if dense:
        np.cumsum(z, axis=-1, out=z)
        before = np.where(first > 0, z[:, u, first - 1], 0.0)
    else:                   # one bridge per unit: its row of a table padded by rank
        b, j = per_time(np.arange(rep.size)), np.arange(len(t)) - per_time(first)
        pad = np.zeros((len(z), rep.size, int(rep.max(initial=0))))
        pad[:, b, j] = z
        z[:], before = np.cumsum(pad, axis=-1, out=pad)[:, b, j], 0.0
    y_a = np.divide(kw[:, i + 1] - kw[:, i], span, out=np.zeros((len(kw), len(i))),
                    where=span > 0.0)
    z -= per_time(y_a + before)
    z *= left
    z += per_time(kw[:, i + 1])
    return z


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
    order = np.argsort((cp_unit * n_seg + cp_seg) + 1j * cp_s, kind="stable")
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
        # per segment one bridge per unit toward its end, through its jumps there
        (u, k), z = np.nonzero(inner), np.concatenate(bridge_z).T
        for i in np.flatnonzero(plan.diffusing):
            here = np.flatnonzero(seg[u, k] == i)
            uu, kk = u[here], k[here]
            starts = np.flatnonzero(np.diff(uu, prepend=-1))
            cover = np.diff(starts, append=uu.size)[:, None]
            w = _sequential_bridge(z[:, here], s[uu, kk], np.full(cover.shape, plan.length[i]),
                                   end[uu[starts], i].T[..., None], cover)
            brown[uu, kk] = w.T
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
    horizon.  Per unit, running holds the running products of the jump
    factors (after none, then after each jump), first is the column of
    the first factor <= 0 (-1 if none), and ends the continuous part of
    the yield over each segment, (units, segments, per_unit, dim).
    """

    def __init__(self, gap, capped, log_gap, running, first, ends):
        self.gap, self.capped, self.log_gap = gap, capped, log_gap
        self.running, self.first, self.ends = running, first, ends


def _horizon(sk: _Skeleton, plan: _Plan, way: _Way, per_unit: int, mmv: bool) -> _Horizon:
    units = sk.end.shape[0]
    ends = plan.level(np.arange(plan.n_seg), plan.length, sk.end, per_unit)
    log_gap = np.zeros((units, per_unit, plan.n_seg + 1))
    for i in range(plan.n_seg):
        log_gap[..., i + 1] = log_gap[..., i] + (
            _rowdot(ends[:, i], way.lam[i]) + way.half_q[i] * plan.length[i])
    f = 1.0 - _rowdot(sk.size, way.dirs[sk.src])
    running = np.cumprod(np.concatenate([np.ones((units, 1)), f], axis=1), axis=1)
    gap = np.exp(-log_gap[..., -1]) * running[:, -1, None]
    # behind a leading False, argmax - 1 is the first hit, or -1 for none
    first = np.concatenate([np.zeros((units, 1), bool), f <= 0.0], axis=1).argmax(axis=1) - 1
    crossed = first >= 0
    capped = np.where(crossed[:, None], 0.0, gap)
    if mmv and crossed.any():
        u = np.flatnonzero(crossed)
        k = first[u]
        seg, s = sk.seg[u, k], sk.s[u, k]
        level = plan.level(seg, s, sk.brown[u, k], per_unit)
        ell = log_gap[u, :, seg] + (_rowdot(level, way.lam[seg][:, None, :])
                                    + (way.half_q[seg] * s)[:, None])
        gap[u] = np.exp(-ell) * running[u, k + 1][:, None]
    return _Horizon(gap.reshape(-1), capped.reshape(-1),
                    log_gap.reshape(units * per_unit, -1), running, first, ends)


def _block_generator(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
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


def _on_workers(n_tasks: int, run) -> list:
    """[run(k) for k in range(n_tasks)], on _worker_count workers.

    A single worker is the calling thread.  The first task (in order)
    that raises cancels the tasks not yet started, and its exception is
    re-raised here once every worker has stopped.
    """
    n_workers = _worker_count(n_tasks)
    if n_workers == 1:
        return [run(k) for k in range(n_tasks)]
    # imported here: it imports logging, which no other part of a run needs
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(n_workers, thread_name_prefix="mmvlab-block") as pool:
        return list(pool.map(run, range(n_tasks)))


def _run_blocks(sim: SimConfig, run, group: int = 1) -> list:
    """run(first, paths, gens) for every run of `group` consecutive blocks
    (the last run may be shorter), in order, on _on_workers.

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
        return run(first, min(len(blocks) * block_paths, sim.n_paths - first),
                   [_block_generator(sim.seed, b) for b in blocks])

    return _on_workers(len(starts), run_group)


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


def _fill_levels(gen: np.random.Generator, plan: _Plan, grid: _Grid, sk: _Skeleton,
                 rows: np.ndarray, z: np.ndarray, pair: np.ndarray) -> None:
    """Draws 6 of the module docstring for the first m units of a block and
    writes their levels into pair, (m, paths per unit, rows, dim): the
    drift plus (for the antithetic partner minus) sigma W.

    Between two skeleton points of a unit (the segment start, its jump
    times, its end) the rows that end after the earlier point and by the
    later one follow the sequential bridge toward the later point.  rows
    holds the row of each jump (_Grid.jump_rows).  z, (units, rows of
    diffusing segments, dim), takes the grid normals: a worker reuses it
    for every block, saving a fresh array's page faults.
    """
    m, per_unit = pair.shape[:2]
    d = plan.dim
    z = np.moveaxis(gen.standard_normal(out=z[:m]), -1, 0)
    seg, s = sk.seg[:m], sk.s[:m]
    inner = sk.valid[:m] & plan.diffusing[seg] & (s < plan.length[seg])
    offset = 0
    for i, span in enumerate(grid.seg_rows):
        s_i = grid.times[i]
        drift = plan.b0[i][:, None] * s_i
        if not plan.diffusing[i]:
            pair[:, :, span] = drift.T
            continue
        n_i, length = s_i.size, plan.length[i]
        w = z[:, :, offset:offset + n_i]
        offset += n_i
        # each unit's points by their rank j in time order, padded with
        # the segment end, and the number of rows that end by each
        here = inner & (seg == i)
        u, k = np.nonzero(here)
        j = np.cumsum(here, axis=1)[u, k] - 1
        times = np.full((m, int(here.sum(axis=1).max(initial=0)) + 1), length)
        times[u, j] = s[u, k]
        value = np.repeat(sk.end[:m, i].T[:, :, None], times.shape[1], axis=2)
        value[:, u, j] = sk.brown[u, k].T
        upto = np.full(times.shape, n_i)
        # a jump's row ends at it (a scheduled jump) or after it
        at = rows[u, k] - span.start
        upto[u, j] = at + (s_i[at] == s[u, k])
        covers = np.diff(upto, axis=1, prepend=0)
        step = max(1, _CHUNK // (d * n_i))
        for u0 in range(0, m, step):
            part = slice(u0, u0 + step)
            _sequential_bridge(w[:, part], s_i, times[part], value[:, part], covers[part])
        if d == 1:
            w *= plan.vol[i][0, 0]
        else:
            w = np.einsum("jc,cur->jur", plan.vol[i], w)
        for c in range(d):
            for p, op in zip(range(per_unit), (np.add, np.subtract)):
                op(drift[c], w[c], out=pair[:, p, span, c])


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
    n_units, per_unit = _unit_layout(sim)
    # whole units; an antithetic partner past the last path is dropped
    levels = np.empty((n_units * per_unit, grid.n_rows, plan.dim))
    local = threading.local()
    n_normals = sum(grid.times[i].size for i in np.flatnonzero(plan.diffusing))

    def run_block(first, n, gens):
        z = getattr(local, "z", None)
        if z is None:
            z = local.z = np.empty((_BLOCK_UNITS, n_normals, plan.dim))
        sk = _draw_skeleton(gens, plan)
        rows = grid.jump_rows(sk, plan)
        m = -(-n // per_unit)       # units with a path in the run
        pair = levels[first:first + m * per_unit].reshape(m, per_unit, *levels.shape[1:])
        _fill_levels(gens[0], plan, grid, sk, rows, z, pair)
        return first, n, sk, rows

    blocks = tuple(_run_blocks(sim, run_block))
    return PathSet(levels=levels[:sim.n_paths], t_end=grid.t_end, dt=grid.dt,
                   seg_index=grid.seg_index, atom_index=grid.atom_index,
                   model=model, config=sim, _blocks=blocks, _plan=plan, _grid=grid)


def wealth_recursion(paths: PathSet, schedule, kind) -> np.ndarray:
    """Normalized wealth paths of the gap strategy, from 0 toward bliss
    level 1; shape (n_paths, n_rows + 1).

    Per row the invested amount is the direction times the gap 1 - W,
    clamped at zero for the monotone kind, so the gap is the continuous
    factor to the row's end times the running product of the jump factors
    up to it (a unit's partners take it in one pass), and for the monotone
    kind stays at its value at the first factor <= 0.  The last column is
    the study's horizon value.  Each block writes its rows whole.
    """
    mmv = _kind(kind) is UtilityKind.MMV
    plan, grid = paths._plan, paths._grid
    way = _Way(plan, paths.model, schedule)
    per_unit = _unit_layout(paths.config)[1]
    n_rows, d = paths.n_rows, plan.dim
    w = np.empty((paths.n_paths, n_rows + 1))
    # minus exp(-lam'c lam s / 2) at each row
    row_factor = -np.exp(-np.concatenate(
        [h * t for h, t in zip(way.half_q, grid.times)]))

    def reduce(b):
        first, n, sk, jump_rows = paths._blocks[b]
        h = _horizon(sk, plan, way, per_unit, mmv)
        horizon = 1.0 - h.gap[:n]      # as the study takes it
        w[first:first + n, 0] = 0.0
        units = sk.valid.shape[0]
        covers = np.diff(jump_rows, axis=1, prepend=0, append=n_rows)   # rows per product
        frozen = np.full(units, n_rows)
        if mmv:
            crossed = np.flatnonzero(h.first >= 0)
            frozen[crossed] = jump_rows[crossed, h.first[crossed]]
        # a few units at a time in a buffer: passes on w's strided rows run slower
        step = max(1, _CHUNK // (per_unit * n_rows))
        buf = np.empty((step * per_unit, n_rows))
        for u0 in range(0, min(units, -(-n // per_unit)), step):
            u1 = min(u0 + step, units)
            p0, p1 = u0 * per_unit, min(u1 * per_unit, n)
            g = buf[:p1 - p0]
            levels = paths.levels[first + p0:first + p1]
            # 1 - W = exp(-lam . level - the log gap at the segment start)
            # x the row factor x the running product of the unit's jumps
            for i, rows in enumerate(grid.seg_rows):
                part = g[:, rows]
                np.multiply(levels[:, rows, 0], -way.lam[i, 0], out=part)
                for c in range(1, d):
                    part -= levels[:, rows, c] * way.lam[i, c]
                if i:
                    part -= h.log_gap[p0:p1, i, None]
            np.exp(g, out=g)
            factor = np.repeat(h.running[u0:u1].ravel(), covers[u0:u1].ravel())
            factor = factor.reshape(u1 - u0, n_rows) * row_factor
            k = (p1 - p0) // per_unit       # a unit's partners at once, then a lone path
            g[:k * per_unit].reshape(k, per_unit, n_rows)[...] *= factor[:k, None]
            g[k * per_unit:] *= factor[k:k + 1]
            g += 1.0
            start = np.repeat(frozen[u0:u1], per_unit)[:p1 - p0]
            held = np.flatnonzero(start < n_rows)
            later = np.arange(n_rows) >= start[held, None]
            g[held] = np.where(later, horizon[p0 + held, None], g[held])
            g[:, -1] = horizon[p0:p1]
            w[first + p0:first + p1, 1:] = g

    _on_workers(len(paths._blocks), reduce)
    return w


def capped_exponential(paths: PathSet, schedule) -> np.ndarray:
    """Terminal product of (1 - u∧1) per path over the path's jumps and
    continuous factor, from the skeleton alone.

    Equals (1 - W_T)+ for the monotone recursion pathwise; also the
    unnormalized dual density candidate.
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
    config: SimConfig


def run_wealth_study(model: MarketModel, sim: SimConfig, kind,
                     solution: Solution | None = None) -> WealthStudy:
    """Simulate and reduce each skeleton to normalized terminal wealth
    (start 0, bliss level 1).

    Solves for the optimal schedule when none is passed.  Memory is
    O(n_paths) plus one run's skeleton per worker: its arrays hold about
    _STUDY_VALUES values each, or one block's if that is more.
    """
    kind = _kind(kind)
    if solution is None:
        solution = solve_schedule(model, kind)
    plan = _Plan(model)
    way = _Way(plan, model, solution)
    mmv = kind is UtilityKind.MMV

    w_t = np.empty(sim.n_paths)
    capped = np.empty(sim.n_paths)
    r_t = np.empty((sim.n_paths, plan.dim))
    per_unit = _unit_layout(sim)[1]

    def run(first, n, gens):
        sk = _draw_skeleton(gens, plan)
        h = _horizon(sk, plan, way, per_unit, mmv)
        span = slice(first, first + n)
        w_t[span] = 1.0 - h.gap[:n]
        capped[span] = h.capped[:n]
        # the yield at the horizon: continuous parts, then the jumps, each
        # summed in order
        total = np.cumsum(h.ends, axis=1)[:, -1]
        if sk.size.shape[1]:
            total = total + np.cumsum(sk.size, axis=1)[:, -1, None]
        r_t[span] = total.reshape(-1, plan.dim)[:n]

    # a skeleton's width: the scheduled jumps, the mean Poisson count and
    # one more (the unit with the most Poisson jumps sets it, a few more)
    width = len(plan.jumps) + sum(mean for _, mean, _ in plan.jumping) + 1.0
    group = int(_STUDY_VALUES // (_BLOCK_UNITS * width * plan.dim))
    _run_blocks(sim, run, min(max(group, 1), _STUDY_GROUP))
    return WealthStudy(terminal_wealth=w_t, capped_exponential=capped,
                       terminal_increment=r_t, kind=kind, config=sim)


def estimate_stats(values, functional: str = "mean",
                   antithetic: bool = False) -> PathStats:
    """Sample estimate with standard error for one functional.

    With antithetic pairing the estimate and its error are computed over
    pair averages (consecutive values form a pair), which is the valid
    estimator for mirrored draws; a lone last value is left out, and at
    least two complete pairs are needed.
    """
    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    if n < 2:
        raise InvariantError("need at least two paths for an estimate")
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
