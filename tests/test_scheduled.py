"""The scheduled-jump table: generators, config parsing, no per-bet objects."""
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmvlab
from mmvlab import (CumulativeUtility, FiniteAtoms, InvariantError,
                    LocalCharacteristics, MarketModel, ScheduledJumps, SchemaError, Segment,
                    build_model, capped_variant, cumulative_local_utility,
                    det_stoch_exponential, example_model, mellin_sign_moments,
                    solve_schedule)
from mmvlab.cli import run
from mmvlab.duality import _crossing_masses, _zeta
from mmvlab.examples import _example5_atoms, _example6_atoms
from mmvlab.model import JumpAtom


def _bet5(n):
    w = 1.0 / n ** 2
    return 2.0 - 1.0 / n, w, [-1.0 / n ** 3, 1.0 / n ** 2, 1.0], [0.5 - w, 0.5, w]


def _bet6(n):
    d = float(n ** 3 + 1)
    return (2.0 - 1.0 / n, 1.0 / n ** 2, [-(n + 1.0) / d, (n ** 3 - n) / d],
            [n ** 3 / d, 1.0 / d])


def _columns(bets):
    times, weights, points, masses = zip(*bets)
    return (np.array(times), np.array(weights), np.array(points).reshape(-1, 1),
            np.array(masses).ravel())


def _table_columns(table, rows):
    parts = [np.arange(table.offsets[t], table.offsets[t + 1]) for t in rows]
    k = np.concatenate(parts)
    return table.times[rows], table.weights[rows], table.points[k], table.masses[k]


@pytest.mark.parametrize("ex_id, bet", [(5, _bet5), (6, _bet6)])
def test_generators_match_the_per_bet_expressions_bit_for_bit(ex_id, bet):
    table = example_model(ex_id).atoms
    want = _columns(bet(n) for n in range(2, len(table) + 2))
    got = (table.times, table.weights, table.points, table.masses)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("make, bet", [(_example5_atoms, _bet5), (_example6_atoms, _bet6)])
def test_generators_round_large_powers_like_python_ints(make, bet):
    # past n = 208 064, n^3 exceeds 2^53 and is rounded once, as Python does
    n_max = 2 ** 18 + 8
    table = make(n_max)
    ns = [208_063, 208_065, 2 ** 18 - 1, 2 ** 18 + 1, n_max]
    got = _table_columns(table, [n - 2 for n in ns])
    for g, w in zip(got, _columns(bet(n) for n in ns)):
        assert g.tobytes() == w.tobytes()


@pytest.fixture
def law_objects(monkeypatch):
    """Counts of FiniteAtoms and JumpAtom objects built while it is active."""
    counts = {"FiniteAtoms": 0, "JumpAtom": 0}
    for cls in (FiniteAtoms, JumpAtom):
        init = cls.__post_init__

        def counting(self, init=init, name=cls.__name__):
            counts[name] += 1
            init(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


def _random_laws_config(n_laws: int, seed: int = 0, dim: int = 1) -> dict:
    rng = np.random.default_rng(seed)
    atoms = []
    for i in range(n_laws):
        k = int(rng.integers(3, 7))
        pts = rng.choice([-1.0, 1.0], size=(k, dim)) * rng.uniform(0.05, 2.0, size=(k, dim))
        ms = rng.uniform(0.05, 0.4, size=k)
        ms *= rng.uniform(0.3, 1.0) / ms.sum()
        atoms.append({"time": (i + 1) / n_laws, "points": pts.tolist(),
                      "masses": [float(v) for v in ms]})
    return {"horizon": 1.0, "dimension": dim,
            "segments": [{"t_start": 0.0, "t_end": 1.0, "b_kind": "trunc",
                          "b": [0.1] * dim, "c": (0.05 * np.eye(dim)).tolist()}],
            "atoms": atoms}


def test_building_and_solving_builds_no_per_bet_objects(law_objects):
    models = [example_model(5, atoms_max=2000), example_model(1),
              build_model(_random_laws_config(50, dim=2))]
    for model in models:
        for kind in ("mv", "mmv"):
            cumulative_local_utility(model, kind, solution=solve_schedule(model, kind))
    build_model(_random_laws_config(1000))
    assert law_objects == {"FiniteAtoms": 0, "JumpAtom": 0}


def test_no_command_builds_per_bet_objects(law_objects):
    config = _random_laws_config(300)
    built = {}
    for args in (["diagnose"], ["solve", "--kind", "mv"], ["solve", "--kind", "mmv"],
                 ["simulate", "--paths", "2000"]):
        code, _, err = _run_config(config, *args)
        assert code == 0, err
        built[" ".join(args)] = dict(law_objects)
    for example in ("5", "6"):
        code, _, err = _quiet_run(["reproduce", "--example", example, "--atoms-max", "300"])
        assert code == 0, err
        built[f"reproduce {example}"] = dict(law_objects)
    none = {"FiniteAtoms": 0, "JumpAtom": 0}
    assert built == dict.fromkeys(built, none)
    # example 1 reads its one scheduled jump's characteristics from a view
    assert _quiet_run(["reproduce", "--example", "1"])[0] == 0
    assert law_objects == {"FiniteAtoms": 1, "JumpAtom": 1}


def test_a_table_builds_its_rows_once(monkeypatch):
    from mmvlab import localutil
    built = []
    make = localutil._Rows.__init__

    def counting(self, *args, **kwargs):
        built.append(len(args[0]) if args else 0)
        make(self, *args, **kwargs)

    model = build_model(_random_laws_config(40, seed=5))
    table = model.atoms
    rows = localutil._rows_from_table(table)
    assert localutil._rows_from_table(table) is rows
    for a in (rows.b, rows.c, rows.x, rows.m, rows.row, rows.h):
        assert not a.flags.writeable
    monkeypatch.setattr(localutil._Rows, "__init__", counting)
    for kind in ("mv", "mmv"):
        solve_schedule(model, kind)
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        path = Path(tmp) / "laws.json"
        path.write_text(json.dumps(_random_laws_config(40, seed=5)))
        assert run(["diagnose", str(path)]) == 0
    # the second model's table builds its rows once for the whole report;
    # the first's were built above, and one-row views build none
    assert built.count(40) == 1


def test_table_rows_are_jump_atom_views():
    model = build_model(_random_laws_config(5, seed=3))
    table = model.atoms
    assert len(table) == 5 and table.dim == 1
    atom = table[-1]
    assert isinstance(atom, JumpAtom) and atom.time == 1.0
    k = slice(table.offsets[4], table.offsets[5])
    assert np.array_equal(atom.law.points, table.points[k])
    with pytest.raises(ValueError):
        table.masses[0] = 0.5
    # views compare by identity, never by their multi-outcome laws
    assert table[0] != table[0] and not table[0] == table[0]


@pytest.mark.parametrize("make", [tuple, list])
def test_a_model_takes_scheduled_jumps_only_as_a_table(make):
    model = build_model(_random_laws_config(5, seed=3))
    with pytest.raises(InvariantError, match="ScheduledJumps table"):
        MarketModel(1.0, 1, model.segments, make(model.atoms))
    with pytest.raises(InvariantError, match="ScheduledJumps table"):
        MarketModel(1.0, 1, model.segments, make())


def test_the_empty_table_is_a_model_of_no_scheduled_jumps():
    table = ScheduledJumps.empty(2)
    assert len(table) == 0 and table.dim == 2 and table.points.shape == (0, 2)
    chars = LocalCharacteristics(np.array([0.1, 0.05]), np.diag([0.2, 0.1]), None)
    model = MarketModel(1.0, 2, (Segment(0.0, 1.0, chars),), table)
    for kind in ("mv", "mmv"):
        sol = solve_schedule(model, kind)
        assert len(sol.atom_optima) == 0 and sol.atom_optima.lambda_hat.shape == (0, 2)
        assert sol.segment_optima[0].boundedness == "interior"
    with pytest.raises(InvariantError, match="dimension"):
        MarketModel(1.0, 1, (Segment(0.0, 1.0, LocalCharacteristics(
            np.zeros(1), np.eye(1), None)),), table)
    assert build_model(_atoms_config()).atoms.points.shape == (0, 1)


def test_table_rejects_what_jump_atoms_reject():
    ok = dict(times=[0.5], weights=[1.0], points=[[0.2]], masses=[0.5], row=[0])
    for change in ({"masses": [1.5]}, {"points": [[0.0]]}, {"weights": [0.0]},
                   {"masses": [-0.1]}, {"points": [[math.inf]]}):
        with pytest.raises(InvariantError):
            ScheduledJumps(**{**ok, **change})


def test_capped_variant_merges_what_the_cap_makes_coincide():
    capped = capped_variant(example_model(5, atoms_max=20), 0.2)
    first = capped.atoms[0]                  # bet 2: gain 1/4 and windfall 1 cap to 0.2
    assert first.law.points[:, 0].tolist() == [-0.125, 0.2]
    assert first.law.masses.tolist() == [0.25, 0.5 + 0.25]
    assert float(capped.atoms.points.max()) <= 0.2


def _atoms_config(*atoms, dim=1):
    return {"horizon": 1.0, "dimension": dim,
            "segments": [{"t_start": 0.0, "t_end": 1.0, "b_kind": "trunc",
                          "b": [0.0] * dim if dim > 1 else 0.0,
                          "c": [[0.1 * (i == j) for j in range(dim)] for i in range(dim)]
                          if dim > 1 else 0.1}],
            "atoms": list(atoms)}


GOOD = {"time": 0.5, "points": [[0.2]], "masses": [0.5]}


@pytest.mark.parametrize("atoms, exc, where", [
    # a time fault is found before a points fault of the same atom
    ([{**GOOD, "time": 2.0, "points": [[0.1, 0.2]]}], InvariantError, 0),
    # the first bad atom wins, whatever its kind of fault
    ([GOOD, {**GOOD, "time": 0.6, "masses": [1.5]}, {**GOOD, "time": 0.7, "x": 1}],
     InvariantError, 1),
    ([GOOD, {**GOOD, "time": 0.6, "x": 1}, {**GOOD, "time": 0.4}], SchemaError, 1),
    ([GOOD, {**GOOD, "time": 0.6, "points": [[True]]}, {**GOOD, "time": 0.1}],
     SchemaError, 1),
    ([GOOD, {**GOOD, "time": 10 ** 400}], SchemaError, 1),
    ([{**GOOD, "points": [[0.2], [0.3]], "masses": [0.5, -0.1]}], InvariantError, 0),
])
def test_the_first_bad_atom_is_reported(atoms, exc, where):
    with pytest.raises(exc, match=rf"config\.atoms\[{where}\]"):
        build_model(_atoms_config(*atoms))


# ---------------------------------------------------------------------------
# config fuzz: mutations of the atoms block go through `mmvlab solve`

_BAD_NUMBERS = [True, "0.1", None, math.nan, math.inf, 10 ** 400]


@st.composite
def atoms_blocks(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 4))
    times = sorted(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n,
                                 unique=True)))
    atoms = []
    for t in times:
        k = draw(st.integers(1, 3))
        pts = [[draw(st.sampled_from([-0.5, -0.1, 0.2, 0.7, 1.5])) for _ in range(dim)]
               for _ in range(k)]
        ms = [draw(st.floats(0.01, 0.3)) for _ in range(k)]
        atoms.append({"time": t, "points": pts, "masses": ms})
    return dim, atoms


def _break(atoms, i, kind, draw, dim):
    """Make atom i malformed in the given way."""
    atom = atoms[i]
    if kind == "number":
        bad = draw(st.sampled_from(_BAD_NUMBERS))
        field = draw(st.sampled_from(["time", "point", "mass"]))
        if field == "time":
            atom["time"] = bad
        elif field == "point":
            atom["points"][0][-1] = bad
        else:
            atom["masses"][-1] = bad
    elif kind == "dimension":
        atom["points"][-1] = atom["points"][-1] + [0.3]
    elif kind == "empty":
        atom["points"] = []
        if draw(st.booleans()):
            atom["masses"] = []
    elif kind == "lengths":
        atom["masses"] = atom["masses"] + [0.01]
    elif kind == "unsorted":
        atom["time"] = atoms[i - 1]["time"] if i else 0.0
    elif kind == "range":
        atom["time"] = draw(st.sampled_from([-0.5, 1.5]))
    elif kind == "mass":
        atom["masses"][0] = 1.5
    elif kind == "zero":
        atom["points"][0] = [0.0] * dim
    elif kind == "negative":
        atom["masses"][-1] = -0.05
    else:
        atom["weight"] = 1.0


_FAULTS = ["number", "dimension", "empty", "lengths", "unsorted", "range", "mass",
           "zero", "negative", "unknown"]


def _quiet_run(args):
    """(exit code, stdout, stderr) of `mmvlab` with the given arguments."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(args)
    return code, out.getvalue(), err.getvalue()


def _run_config(config, command="solve", *options):
    """(exit code, stdout, stderr) of `mmvlab <command> CONFIG <options>`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        return _quiet_run([command, str(path), *options])


@given(atoms_blocks(), st.data())
@settings(max_examples=150, deadline=None)
def test_malformed_atoms_exit_2_at_the_first_bad_atom(block, data):
    dim, atoms = block
    bad = sorted(data.draw(st.sets(st.integers(0, len(atoms) - 1), min_size=1,
                                   max_size=2)))
    for i in reversed(bad):     # break the later atom first: "unsorted" reads i - 1
        _break(atoms, i, data.draw(st.sampled_from(_FAULTS)), data.draw, dim)
    code, out, err = _run_config(_atoms_config(*atoms, dim=dim))
    assert (code, out) == (2, "")
    assert "Traceback" not in err and f"config.atoms[{bad[0]}]" in err


@given(atoms_blocks(), st.data())
@settings(max_examples=60, deadline=None)
def test_valid_atoms_solve(block, data):
    dim, atoms = block
    atom = atoms[data.draw(st.integers(0, len(atoms) - 1))]
    edit = data.draw(st.sampled_from(["zero_mass", "duplicate", "int", "none"]))
    if edit == "zero_mass":
        atom["masses"][0] = 0
    elif edit == "duplicate":
        atom["points"].append(list(atom["points"][0]))
        atom["masses"].append(0.01)
    elif edit == "int" and dim == 1:
        atom["points"][0] = 1          # a bare number is a one-dimensional point
    code, out, err = _run_config(_atoms_config(*atoms, dim=dim))
    assert code in (0, 1) and "Traceback" not in err
    assert json.loads(out)["model"]["n_scheduled_jumps"] == len(atoms)


# ---------------------------------------------------------------------------
# the scheduled-jump sums of the diagnostics against a plain loop


@st.composite
def tables(draw):
    """Random tables: 1-3 dimensions, 0-12 outcomes per jump, some
    coincident, some of zero mass."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(st.lists(st.sampled_from([-1.5, -0.4, 0.0, 0.3, 0.8, 2.0]),
                                  min_size=dim, max_size=dim)
                         .filter(lambda p: any(p)), min_size=1, max_size=5))
    points, masses, row = [], [], []
    for t in range(n):
        k = draw(st.integers(0, 12))
        points += [draw(st.sampled_from(pool)) for _ in range(k)]
        ms = [draw(st.floats(0.0, 1.0)) for _ in range(k)]
        scale = draw(st.floats(0.1, 1.0)) / max(sum(ms), 1.0)
        masses += [m * scale for m in ms]
        row += [t] * k
    return ScheduledJumps(np.arange(1, n + 1) / n, np.ones(n),
                          np.array(points, dtype=float).reshape(-1, dim),
                          np.array(masses), np.array(row, dtype=np.intp))


def _charged_outcomes(table, lams):
    """Per jump, (m, lam . x) of each charged outcome in outcome order,
    lam . x added over the coordinates in index order."""
    out = []
    for t, lam in enumerate(lams.tolist()):
        pairs = []
        for k in range(table.offsets[t], table.offsets[t + 1]):
            x, m = table.points[k].tolist(), float(table.masses[k])
            if m > 0.0:
                u = lam[0] * x[0]
                for i in range(1, len(x)):
                    u += lam[i] * x[i]
                pairs.append((m, u))
        out.append(pairs)
    return out


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


@given(tables(), st.data())
@settings(max_examples=80, deadline=None)
def test_scheduled_jump_sums_equal_a_plain_loop_bit_for_bit(table, data):
    # the crossing masses and sign moments read the table's rows; a loop
    # per jump, adding from 0.0 in outcome order, gives the same bits
    dim = table.dim
    lams = np.array(data.draw(st.lists(
        st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim),
        min_size=len(table), max_size=len(table))), dtype=float).reshape(-1, dim)
    still = Segment(0.0, 1.0, LocalCharacteristics(np.zeros(dim), np.zeros((dim, dim)), None))
    model = MarketModel(1.0, dim, (still,), table)
    schedule = [np.zeros(dim), *lams]
    jumps = _charged_outcomes(table, lams)
    for strict in (False, True):
        want = []
        for pairs in jumps:
            tol = 1e-12 * (1.0 + 1.0 + max((abs(u) for _, u in pairs), default=0.0))
            acc = 0.0
            for m, u in pairs:
                if (u > 1.0 + tol) if strict else (u >= 1.0 - tol):
                    acc += m
            want.append(acc)
        assert _bits(_crossing_masses(model, schedule, strict)[1:]) == _bits(want)
    for p in (0, 1, 2):
        exps = []
        for even in (True, False):
            sums = []
            for pairs in jumps:
                acc = 0.0
                for m, u in pairs:
                    acc += m * float(_zeta(u, p, even))
                sums.append(acc)
            cu = CumulativeUtility(0.0, np.array(sums))
            exps.append(det_stoch_exponential(cu, 1.0).value)
        got = mellin_sign_moments(model, schedule, p)
        assert _bits(got.phi_plus) == _bits(0.5 * (exps[0] + exps[1]))
        assert _bits(got.phi_minus) == _bits(0.5 * (exps[0] - exps[1]))


def _merge_one_by_one(points, masses):
    """Reference merge: a dict of points, masses added as they come."""
    seen, out_p, out_m = {}, [], []
    for p, m in zip(points, masses):
        key = tuple(p)
        if key in seen:
            out_m[seen[key]] += m
        else:
            seen[key] = len(out_p)
            out_p.append(p)
            out_m.append(m)
    keep = [i for i, m in enumerate(out_m) if m > 0.0]
    return [out_p[i] for i in keep], [out_m[i] for i in keep]


@given(tables())
@settings(max_examples=80, deadline=None)
def test_merging_per_jump_equals_merging_one_by_one(table):
    capped = np.minimum(table.points, 0.5)     # capping makes points coincide
    merged = table.with_points(capped)
    for t in range(len(table)):
        part = slice(table.offsets[t], table.offsets[t + 1])
        want_p, want_m = _merge_one_by_one(capped[part], table.masses[part])
        got = merged[t].law
        assert np.array(want_p, dtype=float).reshape(-1, table.dim).tobytes() \
            == got.points.tobytes()
        assert np.array(want_m, dtype=float).tobytes() == got.masses.tobytes()


@given(tables(), st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_scheduled_draws_equal_a_search_per_law(table, seed):
    from mmvlab.montecarlo import _BLOCK_UNITS, _block_generator, _draw_skeleton, _Plan
    zero = LocalCharacteristics(np.zeros(table.dim), np.zeros((table.dim, table.dim)), None)
    model = MarketModel(1.0, table.dim, (Segment(0.0, 1.0, zero),), table)
    sk = _draw_skeleton([_block_generator(seed, 0)], _Plan(model))
    got = sk.size[np.arange(_BLOCK_UNITS)[:, None], sk.sched_col]
    # with no diffusion and no other jumps the outcome uniforms come first
    u = _block_generator(seed, 0).random((_BLOCK_UNITS, len(table)))
    want = np.zeros_like(got)
    for t, atom in enumerate(table):
        cum = np.cumsum(atom.law.masses)
        k = np.searchsorted(cum, u[:, t], side="right")
        hit = k < cum.size
        want[hit, t] = atom.law.points[k[hit]]
    assert got.tobytes() == want.tobytes()
    # each unit's jumps are in time order, the scheduled ones in table order at one time
    times = sk.s[:, :len(table)]
    assert np.all(np.diff(times, axis=1) >= 0.0)
