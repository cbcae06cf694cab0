"""Market model assembly: characteristics, segments, fixed jump times.

A model is a horizon T, a partition of [0, T) into segments with
constant local characteristics driven by calendar time, and finitely
many fixed jump times in (0, T] whose increments have a given finite
law.  Per-time characteristics are stored relative to activity: dt on
segments, a unit weight at each fixed time.  Drifts are always stored
under the componentwise unit truncation; configs may supply the
zero-truncation drift instead and are converted on load.

The small-jump integrability invariant (the integral of |x|^2 ^ 1 is
finite) holds structurally for every supported family: all four have
finite total mass and bounded density near the origin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import DEFAULT_QUAD, QuadConfig
from .errors import InvariantError, SchemaError, UnsupportedMeasure
from .measures import (CappedMeasure, ExpTails1D, ExpYieldMeasure, FiniteAtoms,
                       Gaussian1D, JumpMeasure, TabulatedDensity1D, _row_sums,
                       merge_atoms, truncate)

_TIME_TOL = 1e-12


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
        if not np.allclose(c, c.T, atol=1e-12):
            raise InvariantError("diffusion matrix must be symmetric")
        c = 0.5 * (c + c.T)
        if b.size > 0 and float(np.linalg.eigvalsh(c).min(initial=0.0)) < -1e-10 * (1.0 + abs(c).max()):
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


@dataclass(frozen=True)
class JumpAtom:
    """Fixed jump time: law of the increment, restricted to nonzero outcomes.

    Characteristics at the atom use a unit activity weight, so the
    per-unit values coincide with plain expectations under the law.
    `activity_weight` records the original clock weight when a model is
    built programmatically from a scheme with non-unit atom weights; it
    only rescales display rates, never the compounded increments.
    """

    time: float
    law: FiniteAtoms
    activity_weight: float = 1.0

    def __post_init__(self):
        if self.law.total_mass() > 1.0 + 1e-12:
            raise InvariantError("atom law mass exceeds one")
        if self.law.masses.size and float(np.min(np.max(np.abs(self.law.points), axis=1))) <= 0.0:
            raise InvariantError("atom law charges the zero outcome")
        if self.activity_weight <= 0.0:
            raise InvariantError("activity weight must be positive")

    @property
    def chars(self) -> LocalCharacteristics:
        """Characteristics at the jump time, built on first use and kept.

        In one dimension the truncated drift is summed in atom order, as
        the batched scheduled-jump solver sums it, so both see the same
        bits.
        """
        cached = self.__dict__.get("_chars")
        if cached is None:
            law = self.law
            d = law.dim
            if d == 1:
                b = _row_sums(law.masses * truncate(law.points[:, 0]),
                              np.zeros(law.masses.size, dtype=np.intp), 1)
            else:
                b = np.array([law.integrate(lambda x, i=i: truncate(x)[:, i])
                              for i in range(d)])
            cached = LocalCharacteristics(b, np.zeros((d, d)), law)
            object.__setattr__(self, "_chars", cached)
        return cached


@dataclass(frozen=True)
class MarketModel:
    horizon: float
    dim: int
    segments: tuple[Segment, ...]
    atoms: tuple[JumpAtom, ...]
    source: dict = field(default=None, repr=False, compare=False)


def small_jump_mean(chars: LocalCharacteristics, cfg: QuadConfig = DEFAULT_QUAD) -> np.ndarray:
    """Integral of the truncation h against the jump measure, componentwise."""
    d = chars.dim
    if chars.jumps is None:
        return np.zeros(d)
    return np.array([chars.jumps.integrate(
        truncate if d == 1 else lambda x, i=i: truncate(x)[:, i],
        breakpoints=(-1.0, 1.0), cfg=cfg) for i in range(d)])


def exp_transform(chars: LocalCharacteristics, cfg: QuadConfig = DEFAULT_QUAD) -> LocalCharacteristics:
    """Characteristics of the yield process jumping by e^x - 1.

    The diffusion matrix and total jump mass are unchanged; the
    truncated drift picks up the Ito term c/2 plus the retruncation of
    the transformed jumps.  One-dimensional only.
    """
    if chars.dim != 1:
        raise UnsupportedMeasure("exponential yield transform is one-dimensional")
    c = float(chars.cov[0, 0])
    b = float(chars.b_trunc[0]) + 0.5 * c
    jumps = chars.jumps
    if jumps is None:
        return LocalCharacteristics(np.array([b]), chars.cov, None)

    LN2 = math.log(2.0)

    def retrunc(x):
        y = np.expm1(x)
        return np.where(np.abs(y) <= 1.0, y, 0.0) - np.where(np.abs(x) <= 1.0, x, 0.0)

    b += jumps.integrate(retrunc, breakpoints=(-1.0, LN2, 1.0), cfg=cfg)
    if isinstance(jumps, FiniteAtoms):
        image = merge_atoms(np.expm1(jumps.points), jumps.masses)
    else:
        image = ExpYieldMeasure(jumps)
    return LocalCharacteristics(np.array([b]), chars.cov, image)


def cap_jumps(chars: LocalCharacteristics, cap: float,
              cfg: QuadConfig = DEFAULT_QUAD) -> LocalCharacteristics:
    """Characteristics after capping jumps at `cap` (one-dimensional).

    Used to build variants whose scaled jumps stay at or below one; the
    truncated drift is re-derived for the capped jump sizes.
    """
    if chars.dim != 1:
        raise UnsupportedMeasure("cap transform is one-dimensional")
    jumps = chars.jumps
    if jumps is None:
        return chars
    b = float(chars.b_trunc[0])

    def retrunc(y):
        z = np.minimum(y, cap)
        return np.where(np.abs(z) <= 1.0, z, 0.0) - np.where(np.abs(y) <= 1.0, y, 0.0)

    b += jumps.integrate(retrunc, breakpoints=(-1.0, 1.0, cap), cfg=cfg)
    if isinstance(jumps, FiniteAtoms):
        image = merge_atoms(np.minimum(jumps.points, cap), jumps.masses)
    else:
        image = CappedMeasure(jumps, cap)
    return LocalCharacteristics(np.array([b]), chars.cov, image)


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


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        x = float(value)
    except OverflowError:       # an integer beyond the float range
        x = math.inf
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
    if family not in _JUMP_KEYS:
        raise SchemaError(f"{where}: unknown jump family {family!r}")
    _require_keys(spec, _JUMP_KEYS[family], _JUMP_KEYS[family], where)
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
    grid = np.array([_number(v, where) for v in spec["x"]])
    dens = np.array([_number(v, where) for v in spec["density"]])
    if not isinstance(spec["quadrature"], str):
        raise SchemaError(f"{where}: quadrature rule id must be a string")
    return TabulatedDensity1D(grid, dens, spec["quadrature"])


def _serialize_jumps(jumps: JumpMeasure | None):
    if jumps is None:
        return None
    if isinstance(jumps, FiniteAtoms):
        return {"family": "finite_atoms",
                "points": [list(map(float, p)) for p in jumps.points],
                "masses": [float(m) for m in jumps.masses]}
    if isinstance(jumps, Gaussian1D):
        return {"family": "gaussian", "mean": jumps.mean,
                "variance": jumps.variance, "rate": jumps.rate}
    if isinstance(jumps, ExpTails1D):
        return {"family": "exp_tails", "c_minus": jumps.c_minus, "a": jumps.a,
                "c_plus": jumps.c_plus, "b": jumps.b}
    if isinstance(jumps, TabulatedDensity1D):
        return {"family": "tabulated", "x": [float(v) for v in jumps.grid],
                "density": [float(v) for v in jumps.density],
                "quadrature": jumps.quadrature}
    raise UnsupportedMeasure("transformed measures have no config form")


def build_model(config: dict, cfg: QuadConfig = DEFAULT_QUAD) -> MarketModel:
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
    norm_segments = []
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
            chars = LocalCharacteristics(b + small_jump_mean(chars, cfg), c, jumps)
        norm_segments.append({"t_start": t0, "t_end": t1, "b_kind": "trunc",
                              "b": [float(v) for v in chars.b_trunc] if dim > 1
                              else float(chars.b_trunc[0]),
                              "c": [[float(v) for v in row] for row in chars.cov] if dim > 1
                              else float(chars.cov[0, 0]),
                              "jumps": _serialize_jumps(jumps)})
        if transform == "exp":
            chars = exp_transform(chars, cfg)
        segments.append(Segment(t0, t1, chars))
    if abs(cursor - horizon) > _TIME_TOL:
        raise InvariantError("segments must cover [0, horizon)")

    atoms: list[JumpAtom] = []
    norm_atoms = []
    prev_time = 0.0
    for i, atom in enumerate(config.get("atoms", []) or []):
        where = f"config.atoms[{i}]"
        _require_keys(atom, _ATOM_KEYS, _ATOM_KEYS, where)
        time = _number(atom["time"], where)
        if not 0.0 < time <= horizon + _TIME_TOL:
            raise InvariantError(f"{where}: atom time outside (0, horizon]")
        if time <= prev_time:
            raise InvariantError(f"{where}: atom times must be strictly increasing")
        prev_time = time
        pts = _points(atom["points"], dim, where)
        ms = np.array([_number(m, where) for m in atom["masses"]])
        if pts.shape[0] != ms.size:
            raise SchemaError(f"{where}: points and masses disagree in length")
        if transform == "exp":
            pts = np.expm1(pts)
        law = merge_atoms(pts, ms)
        atoms.append(JumpAtom(min(time, horizon), law))
        norm_atoms.append({"time": time,
                           "points": [list(map(float, p)) for p in np.atleast_2d(
                               np.asarray(atom["points"], dtype=float).reshape(-1, dim))],
                           "masses": [float(m) for m in ms]})

    source = {"horizon": horizon, "dimension": dim, "segments": norm_segments,
              "atoms": norm_atoms, "yield_transform": transform}
    return MarketModel(horizon, dim, tuple(segments), tuple(atoms), source)


def serialize_model(model: MarketModel) -> dict:
    """Config mapping that rebuilds this model (normalized to b_kind trunc)."""
    if model.source is None:
        raise UnsupportedMeasure("model was not built from a config")
    return model.source
