"""Market model assembly: characteristics, segments, fixed jump times.

A model is a horizon T, a partition of [0, T) into segments with
constant local characteristics driven by calendar time, and finitely
many fixed jump times in (0, T] whose increments have a given finite
law.  Per-time characteristics are stored relative to activity: dt on
segments, a unit weight at each fixed time.  Drifts are always stored
under the componentwise unit truncation; configs may supply the
zero-truncation drift instead and are converted on load.

The fixed jump times are one columnar table, `ScheduledJumps`: times
and activity weights per jump, points (N, d) and masses per outcome,
and the jump index of each outcome, the outcomes of one jump
contiguous and in law order.  A config's `atoms` block is parsed in
flat passes (keys and shapes, then number types, one float conversion
and finiteness check, then coincident points merged per jump and the
law invariants checked as array reductions) and reports the first bad
atom.  The solver, aggregation, the dual diagnostics and the simulator
read the columns in every dimension (the first three as the rows of
`localutil._Rows`).  The table is the only form in which scheduled jumps
enter a model; indexing it builds a `JumpAtom` view, kept for the one
reader outside the package that binds its `chars`.

The small-jump integrability invariant (the integral of |x|^2 ^ 1 is
finite) holds structurally for every supported family: all four have
finite total mass and bounded density near the origin.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, SchemaError, UnsupportedMeasure
from .measures import (CappedMeasure, ExpTails1D, ExpYieldMeasure, FiniteAtoms,
                       Gaussian1D, JumpMeasure, TabulatedDensity1D, TRUNCATION_PIECES,
                       _row_sums, merge_atoms, merge_rows, truncate)

_TIME_TOL = 1e-12
_MASS_SLACK = 1e-12     # a scheduled jump's total mass may exceed one by this


@dataclass(frozen=True)
class LocalCharacteristics:
    """Truncated drift, diffusion matrix and jump measure, per unit activity."""

    b_trunc: np.ndarray
    cov: np.ndarray
    jumps: JumpMeasure | None

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.b_trunc, dtype=float))
        c = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if c.shape != (b.size, b.size):
            raise InvariantError("diffusion matrix shape does not match drift")
        if not np.isfinite(b).all():
            raise InvariantError("drift must be finite")
        if not np.isfinite(c).all():
            raise InvariantError("diffusion matrix must be finite")
        if b.size == 1:     # symmetric, with its entry for eigenvalue
            v = float(c[0, 0])
            v = 0.5 * (v + v)
            c, low, top = np.array([[v]]), min(v, 0.0), abs(v)
        else:
            if not np.allclose(c, c.T, atol=1e-12):
                raise InvariantError("diffusion matrix must be symmetric")
            c = 0.5 * (c + c.T)
            low = float(np.linalg.eigvalsh(c).min(initial=0.0)) if b.size else 0.0
            top = float(abs(c).max(initial=0.0))
        if top == math.inf:     # the symmetric part overflowed
            raise InvariantError("diffusion matrix must be finite")
        if low < -1e-10 * (1.0 + top):
            raise InvariantError("diffusion matrix must be positive semidefinite")
        if self.jumps is not None and self.jumps.dim != b.size:
            raise InvariantError("jump measure dimension does not match drift")
        object.__setattr__(self, "b_trunc", b)
        object.__setattr__(self, "cov", c)

    @property
    def dim(self) -> int:
        return self.b_trunc.size


@dataclass(frozen=True)
class Segment:
    t_start: float
    t_end: float
    chars: LocalCharacteristics

    @property
    def length(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True, eq=False)
class JumpAtom:
    """Fixed jump time: law of the increment, restricted to nonzero outcomes.

    Characteristics at the atom use a unit activity weight, so the
    per-unit values coincide with plain expectations under the law.
    `activity_weight` records the original clock weight of the jump; it
    only rescales display rates, never the compounded increments.
    A model takes its scheduled jumps only as a `ScheduledJumps` table;
    this is the one-row view that indexing the table builds, and it
    stays until the benchmark tracer no longer binds `chars`.  Views
    compare by identity.
    """

    time: float
    law: FiniteAtoms
    activity_weight: float = 1.0

    def __post_init__(self):
        law = self.law
        bad = _first_bad_row(_law_faults(law.points, law.masses,
                                         np.zeros(law.masses.size, dtype=np.intp),
                                         np.array([self.activity_weight], dtype=float)), 1)
        if bad is not None:
            raise InvariantError(bad[1])

    @property
    def chars(self) -> LocalCharacteristics:
        """Characteristics at the jump time, the truncated drift summed in
        atom order as the table's rows sum it (`localutil._rows_from_table`)."""
        law = self.law
        b = _row_sums(law.masses[:, None] * truncate(law.points),
                      np.zeros(law.masses.size, dtype=np.intp), 1)[0]
        return LocalCharacteristics(b, np.zeros((law.dim, law.dim)), law)


def _first_bad_row(checks, n_rows: int):
    """(row, message) of the first row failing one of `checks`, or None.

    `checks` is a sequence of (rows failing, message) in the order a
    single row is checked; a row's first failing check names it.
    """
    hits = np.zeros((len(checks), n_rows), dtype=bool)
    for k, (rows, _) in enumerate(checks):
        hits[k, rows] = True
    bad = np.flatnonzero(hits.any(axis=0))
    if not bad.size:
        return None
    r = int(bad[0])
    return r, checks[int(np.argmax(hits[:, r]))][1]


def _law_faults(points, masses, row, weights):
    """The checks a row of scheduled jumps must pass, as (rows, message)."""
    return [
        (row[~(masses >= 0.0) | ~np.isfinite(points).all(axis=1)],
         "atom masses must be non-negative and points finite"),
        # summed in law order, as `localutil._Rows` sums a jump's outcomes
        (np.flatnonzero(_row_sums(masses, row, weights.size) > 1.0 + _MASS_SLACK),
         "atom law mass exceeds one"),
        (row[~points.any(axis=1)], "atom law charges the zero outcome"),
        (np.flatnonzero(~(weights > 0.0)), "activity weight must be positive"),
    ]


class ScheduledJumps(Sequence):
    """The scheduled jumps of a model as one flat table.

    Jump t happens at times[t] with clock weight weights[t]; its
    outcomes are the rows k of points (shape (N, d)) and masses with
    row[k] == t, contiguous and in law order, and offsets[t] is the
    first of them.  The table is checked once, by array reductions: no
    negative mass or non-finite point, total mass at most one per jump,
    no zero outcome, positive weights.  Its arrays are read-only.

    It has no per-jump reductions of its own: the solver and the
    diagnostics sum over its outcomes as the rows of `localutil._Rows`,
    and the simulator reads the columns.  It is the only form in which
    scheduled jumps enter a model, `empty(dim)` the table of none.  As a
    sequence it holds one `JumpAtom` view per jump, built on access.
    """

    def __init__(self, times, weights, points, masses, row):
        columns = [np.array(times, dtype=float), np.array(weights, dtype=float),
                   np.array(points, dtype=float), np.array(masses, dtype=float),
                   np.array(row, dtype=np.intp)]
        times, weights, points, masses, row = columns
        n = times.size
        if not (times.ndim == 1 and weights.shape == (n,) and points.ndim == 2
                and masses.shape == row.shape == (points.shape[0],)):
            raise InvariantError("scheduled-jump columns disagree in shape")
        if row.size and (row[0] < 0 or row[-1] >= n or np.any(np.diff(row) < 0)):
            raise InvariantError("scheduled-jump outcomes must be grouped by jump")
        bad = _first_bad_row(_law_faults(points, masses, row, weights), n)
        if bad is not None:
            raise InvariantError(bad[1])
        for col in columns:
            col.setflags(write=False)
        self.times, self.weights, self.points, self.masses, self.row = columns
        counts = np.bincount(row, minlength=n)
        self.offsets = np.concatenate(([0], np.cumsum(counts)))

    @classmethod
    def empty(cls, dim: int) -> "ScheduledJumps":
        """The table of no scheduled jumps in dimension dim."""
        return cls((), (), np.empty((0, dim)), (), ())

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def with_points(self, points) -> "ScheduledJumps":
        """The same jumps with new outcomes, coincident ones merged per jump."""
        pts, ms, row = merge_rows(np.asarray(points, dtype=float), self.masses, self.row)
        return ScheduledJumps(self.times, self.weights, pts, ms, row)

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, t: int) -> JumpAtom:
        t = range(len(self))[t]
        part = slice(self.offsets[t], self.offsets[t + 1])
        return JumpAtom(float(self.times[t]),
                        FiniteAtoms(self.points[part], self.masses[part]),
                        float(self.weights[t]))


@dataclass(frozen=True)
class MarketModel:
    """Horizon, segments and scheduled jumps of a market.

    `atoms` is a `ScheduledJumps` table of dimension `dim`, the only
    form scheduled jumps are given in.
    """

    horizon: float
    dim: int
    segments: tuple[Segment, ...]
    atoms: ScheduledJumps

    def __post_init__(self):
        if not isinstance(self.atoms, ScheduledJumps):
            raise InvariantError("scheduled jumps must be a ScheduledJumps table")
        if self.atoms.dim != self.dim:
            raise InvariantError("scheduled-jump dimension does not match the model")


def small_jump_mean(chars: LocalCharacteristics) -> np.ndarray:
    """Integral of the truncation h against the jump measure, componentwise:
    a dot product per component over atoms, exact over a density law."""
    jumps = chars.jumps
    if jumps is None:
        return np.zeros(chars.dim)
    if isinstance(jumps, FiniteAtoms):
        h = truncate(jumps.points)
        return np.array([float(np.dot(jumps.masses, h[:, i])) for i in range(chars.dim)])
    return np.array([jumps.integrate(TRUNCATION_PIECES)])


def _retruncated(chars: LocalCharacteristics, image: JumpMeasure) -> LocalCharacteristics:
    """The same drift and diffusion with jumps replaced by their image:
    the truncated drift gains the integral of h under the image minus
    that under the original jumps (`small_jump_mean` of each)."""
    imaged = LocalCharacteristics(chars.b_trunc, chars.cov, image)
    b = chars.b_trunc + (small_jump_mean(imaged) - small_jump_mean(chars))
    return LocalCharacteristics(b, chars.cov, image)


def exp_transform(chars: LocalCharacteristics) -> LocalCharacteristics:
    """Characteristics of the yield process jumping by e^x - 1.

    The diffusion matrix and total jump mass are unchanged; the
    truncated drift picks up the Ito term c/2 plus the retruncation of
    the transformed jumps.  One-dimensional only.
    """
    if chars.dim != 1:
        raise UnsupportedMeasure("exponential yield transform is one-dimensional")
    ito = LocalCharacteristics(chars.b_trunc + 0.5 * chars.cov[0], chars.cov, chars.jumps)
    jumps = chars.jumps
    if jumps is None:
        return ito
    return _retruncated(ito, merge_atoms(np.expm1(jumps.points), jumps.masses)
                        if isinstance(jumps, FiniteAtoms) else ExpYieldMeasure(jumps))


def cap_jumps(chars: LocalCharacteristics, cap: float) -> LocalCharacteristics:
    """Characteristics after capping jumps at `cap` (one-dimensional).

    Used to build variants whose scaled jumps stay at or below one; the
    truncated drift is re-derived for the capped jump sizes.
    """
    if chars.dim != 1:
        raise UnsupportedMeasure("cap transform is one-dimensional")
    jumps = chars.jumps
    if jumps is None:
        return chars
    return _retruncated(chars, merge_atoms(np.minimum(jumps.points, cap), jumps.masses)
                        if isinstance(jumps, FiniteAtoms) else CappedMeasure(jumps, cap))


# ---------------------------------------------------------------------------
# config parsing

_TOP_KEYS = {"horizon", "dimension", "segments", "atoms", "yield_transform"}
_SEG_KEYS = {"t_start", "t_end", "b_kind", "b", "c", "jumps"}
_ATOM_KEYS = {"time", "points", "masses"}
_JUMP_KEYS = {
    "finite_atoms": {"family", "points", "masses"},
    "gaussian": {"family", "mean", "variance", "rate"},
    "exp_tails": {"family", "c_minus", "a", "c_plus", "b"},
    "tabulated": {"family", "x", "density", "quadrature"},
}


def _require_keys(obj: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a mapping")
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float_or_inf(value) -> float:
    try:
        return float(value)
    except OverflowError:       # an integer beyond the float range
        return math.inf


def _number(value, where: str) -> float:
    if not _is_number(value):
        raise SchemaError(f"{where}: expected a number, got {type(value).__name__}")
    x = _float_or_inf(value)
    if not math.isfinite(x):
        raise SchemaError(f"{where}: expected a finite number")
    return x


def _vector(value, dim: int, where: str) -> np.ndarray:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if dim != 1:
            raise SchemaError(f"{where}: scalar given for dimension {dim}")
        return np.array([_number(value, where)])
    if not isinstance(value, (list, tuple)) or len(value) != dim:
        raise SchemaError(f"{where}: expected a vector of length {dim}")
    return np.array([_number(v, where) for v in value])


def _matrix(value, dim: int, where: str) -> np.ndarray:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if dim != 1:
            raise SchemaError(f"{where}: scalar given for dimension {dim}")
        return np.array([[_number(value, where)]])
    if not isinstance(value, (list, tuple)) or len(value) != dim:
        raise SchemaError(f"{where}: expected a {dim}x{dim} matrix")
    return np.stack([_vector(row, dim, where) for row in value])


def _points(value, dim: int, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or not value:
        raise SchemaError(f"{where}: expected a nonempty list of points")
    return np.stack([_vector(p, dim, where).reshape(dim) for p in value])


def _parse_jumps(spec, dim: int, where: str) -> JumpMeasure | None:
    if spec is None:
        return None
    if not isinstance(spec, dict) or "family" not in spec:
        raise SchemaError(f"{where}: jump spec needs a 'family' key")
    family = spec["family"]
    if not isinstance(family, str):
        raise SchemaError(f"{where}.family: expected a string")
    if family not in _JUMP_KEYS:
        raise SchemaError(f"{where}: unknown jump family {family!r}")
    _require_keys(spec, _JUMP_KEYS[family], _JUMP_KEYS[family], where)
    for key in ("masses", "x", "density"):
        if key in spec and not isinstance(spec[key], (list, tuple)):
            raise SchemaError(f"{where}.{key}: expected a list")
    if family != "finite_atoms" and dim != 1:
        raise InvariantError(f"{where}: density families require dimension 1")
    if family == "finite_atoms":
        pts = _points(spec["points"], dim, where)
        ms = np.array([_number(m, where) for m in spec["masses"]])
        if pts.shape[0] != ms.size:
            raise SchemaError(f"{where}: points and masses disagree in length")
        return FiniteAtoms(pts, ms)
    if family == "gaussian":
        return Gaussian1D(_number(spec["mean"], where),
                          _number(spec["variance"], where),
                          _number(spec["rate"], where))
    if family == "exp_tails":
        return ExpTails1D(_number(spec["c_minus"], where), _number(spec["a"], where),
                          _number(spec["c_plus"], where), _number(spec["b"], where))
    grid, bad = _floats(spec["x"], lambda k: where)
    if bad is None:
        dens, bad = _floats(spec["density"], lambda k: where)
    if bad is not None:
        raise bad[1]
    if spec["quadrature"] != "trapezoid":
        raise SchemaError(f"{where}.quadrature: unknown rule {spec['quadrature']!r}")
    return TabulatedDensity1D(grid, dens)


# Stages of the per-atom checks, in the order one atom is checked.
_KEYS, _TIME_TYPE, _TIME_VALUE, _LAW_SHAPE, _LAW_VALUE = range(5)


def _first_non_number(values) -> int | None:
    """Index of the first entry that is not an int or float (bool is not)."""
    if set(map(type, values)) <= {int, float}:
        return None
    return next((k for k, v in enumerate(values) if not _is_number(v)), None)


def _floats(values, where_of):
    """The leading valid entries of values as floats, and the first fault.

    An entry is valid when it is an int or float (not bool) whose float
    value is finite.  Returns (array of the entries before the first
    invalid one, None or (its index, SchemaError)).
    """
    k = _first_non_number(values)
    numbers = values if k is None else values[:k]
    try:
        arr = np.array(numbers, dtype=float).reshape(len(numbers))
    except OverflowError:   # an integer beyond the float range
        arr = np.array([_float_or_inf(v) for v in numbers], dtype=float)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        j = int(bad[0])
        return arr[:j], (j, SchemaError(f"{where_of(j)}: expected a finite number"))
    if k is not None:
        return arr, (k, SchemaError(f"{where_of(k)}: expected a number, "
                                    f"got {type(values[k]).__name__}"))
    return arr, None


def _law_shape_fault(points, masses, dim: int, flat: list) -> str | None:
    """Shape fault of one atom's points and masses; appends the coordinates."""
    if not isinstance(points, (list, tuple)) or not points:
        return "expected a nonempty list of points"
    for p in points:
        if isinstance(p, (list, tuple)) and len(p) == dim:
            flat.extend(p)
        elif dim == 1 and _is_number(p):
            flat.append(p)
        else:
            return f"expected a vector of length {dim}"
    if not isinstance(masses, (list, tuple)):
        return "expected a list of masses"
    if len(points) != len(masses):
        return "points and masses disagree in length"
    return None


def _parse_atoms(raw, dim: int, horizon: float, exp: bool) -> ScheduledJumps:
    """The `atoms` block as a ScheduledJumps table.

    One pass checks keys and shapes and collects flat lists; the numbers
    are then type-checked, converted and checked for finiteness at once,
    and the times and laws checked by array reductions.  Each check sees
    the atoms whose inputs to it are valid, and the least (atom, stage)
    among the faults found is raised: the error an atom-by-atom parse
    raises first.
    """
    if not raw and isinstance(raw, (list, tuple, type(None))):
        return ScheduledJumps.empty(dim)
    if not isinstance(raw, (list, tuple)):
        raise SchemaError("config.atoms: expected a list")

    def where(i):
        return f"config.atoms[{i}]"

    times, coords, masses, n_points = [], [], [], []
    faults = []     # (atom, stage, error)
    for i, atom in enumerate(raw):
        if not (isinstance(atom, dict) and atom.keys() == _ATOM_KEYS):
            try:
                _require_keys(atom, _ATOM_KEYS, _ATOM_KEYS, where(i))
            except SchemaError as exc:
                faults.append((i, _KEYS, exc))
                break
        times.append(atom["time"])
        n_before = len(coords)
        shape = _law_shape_fault(atom["points"], atom["masses"], dim, coords)
        if shape is not None:
            del coords[n_before:]
            faults.append((i, _LAW_SHAPE, SchemaError(f"{where(i)}: {shape}")))
            break
        masses.extend(atom["masses"])
        n_points.append(len(atom["masses"]))

    t, bad = _floats(times, where)
    if bad is not None:
        faults.append((bad[0], _TIME_TYPE, bad[1]))
    outside = ~((0.0 < t) & (t <= horizon + _TIME_TOL))
    late = np.flatnonzero(outside | (t <= np.concatenate(([0.0], t[:-1]))))
    if late.size:
        i = int(late[0])
        faults.append((i, _TIME_VALUE, InvariantError(
            f"{where(i)}: atom time outside (0, horizon]" if outside[i]
            else f"{where(i)}: atom times must be strictly increasing")))

    counts = np.array(n_points, dtype=np.intp)
    ends = np.cumsum(counts)
    atom_of = np.repeat(np.arange(counts.size), counts)
    pts, bad = _floats(coords, lambda k: where(atom_of[k // dim]))
    if bad is not None:
        faults.append((int(atom_of[bad[0] // dim]), _LAW_SHAPE, bad[1]))
    ms, bad = _floats(masses, lambda k: where(atom_of[k]))
    if bad is not None:
        faults.append((int(atom_of[bad[0]]), _LAW_SHAPE, bad[1]))

    # the law checks see the atoms all of whose numbers are valid
    n_atoms = int(np.searchsorted(ends, min(pts.size // dim, ms.size), side="right"))
    n_out = int(ends[n_atoms - 1]) if n_atoms else 0
    raw_pts, ms = pts[:n_out * dim].reshape(n_out, dim), ms[:n_out]
    merged = merge_rows(np.expm1(raw_pts) if exp else raw_pts, ms, atom_of[:n_out])
    weights = np.ones(n_atoms)
    negative = (atom_of[:n_out][ms < 0.0], "atom masses must be non-negative")
    bad = _first_bad_row([negative, *_law_faults(*merged, weights)], n_atoms)
    if bad is not None:
        faults.append((bad[0], _LAW_VALUE, InvariantError(f"{where(bad[0])}: {bad[1]}")))
    if faults:
        raise min(faults, key=lambda f: f[:2])[2]

    return ScheduledJumps(np.minimum(t, horizon), weights, *merged)


def build_model(config: dict) -> MarketModel:
    """Validate a config mapping and assemble the market model.

    Raises SchemaError for malformed documents and InvariantError for
    well-formed documents that violate a model invariant.  When
    `yield_transform` is "exp", segment characteristics and atom laws
    describe the log-price increments and are transformed on load.
    """
    _require_keys(config, _TOP_KEYS, {"horizon", "dimension", "segments"}, "config")
    horizon = _number(config["horizon"], "config.horizon")
    if horizon <= 0.0:
        raise InvariantError("horizon must be positive")
    dim = config["dimension"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise SchemaError("config.dimension: expected an integer")
    if not 1 <= dim <= 4:
        raise InvariantError("dimension must be between 1 and 4")
    transform = config.get("yield_transform", "none")
    if transform not in ("none", "exp"):
        raise SchemaError(f"config.yield_transform: unknown value {transform!r}")
    if transform == "exp" and dim != 1:
        raise InvariantError("exponential yield transform requires dimension 1")

    raw_segments = config["segments"]
    if not isinstance(raw_segments, (list, tuple)) or not raw_segments:
        raise SchemaError("config.segments: expected a nonempty list")
    segments: list[Segment] = []
    cursor = 0.0
    for i, seg in enumerate(raw_segments):
        where = f"config.segments[{i}]"
        _require_keys(seg, _SEG_KEYS, {"t_start", "t_end", "b_kind", "b", "c"}, where)
        t0 = _number(seg["t_start"], where)
        t1 = _number(seg["t_end"], where)
        if abs(t0 - cursor) > _TIME_TOL:
            raise InvariantError(f"{where}: segments must tile [0, horizon) without gaps")
        if t1 <= t0:
            raise InvariantError(f"{where}: empty or reversed segment")
        cursor = t1
        kind = seg["b_kind"]
        if kind not in ("trunc", "zero"):
            raise SchemaError(f"{where}: b_kind must be 'trunc' or 'zero'")
        b = _vector(seg["b"], dim, where + ".b")
        c = _matrix(seg["c"], dim, where + ".c")
        jumps = _parse_jumps(seg.get("jumps"), dim, where + ".jumps")
        chars = LocalCharacteristics(b, c, jumps)
        if kind == "zero":
            chars = LocalCharacteristics(b + small_jump_mean(chars), c, jumps)
        if transform == "exp":
            chars = exp_transform(chars)
        segments.append(Segment(t0, t1, chars))
    if abs(cursor - horizon) > _TIME_TOL:
        raise InvariantError("segments must cover [0, horizon)")

    atoms = _parse_atoms(config.get("atoms"), dim, horizon, transform == "exp")
    return MarketModel(horizon, dim, tuple(segments), atoms)
