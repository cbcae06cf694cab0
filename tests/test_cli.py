"""Command line behavior: exit codes, formats, determinism."""
import contextlib
import copy
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmvlab
from mmvlab import MmvLabError, build_model, solve_schedule
from mmvlab.cli import _REPRODUCERS, _lookup, _selftest_values, run
from mmvlab.examples import expected_figures

ZERO_CONFIG = {
    "horizon": 1.0, "dimension": 1,
    "segments": [{"t_start": 0.0, "t_end": 1.0, "b_kind": "trunc",
                  "b": [0.0], "c": [[0.0]]}],
}


@pytest.fixture()
def zero_config_path(tmp_path):
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(ZERO_CONFIG))
    return str(p)


def divergent_config() -> dict:
    # 80 identical profitable bets: the aggregated series runs away,
    # which the partial-sum heuristic must flag as infinite
    atoms = [{"time": round(0.01 * k, 2), "points": [[-0.1], [0.9]],
              "masses": [0.5, 0.5]} for k in range(1, 81)]
    return {
        "horizon": 1.0, "dimension": 1,
        "segments": [{"t_start": 0.0, "t_end": 1.0, "b_kind": "trunc",
                      "b": [0.0], "c": [[0.0]]}],
        "atoms": atoms,
    }


class TestExitCodes:
    def test_solve_zero_model(self, zero_config_path, capsys):
        assert run(["solve", zero_config_path]) == 0
        report = json.loads(capsys.readouterr().out)
        values = report["solution"]["values"]
        assert values["best_utility"]["value"] == 0.0
        assert values["dual_value"]["value"] == 0.0
        assert values["finite"] is True

    def test_missing_config(self, tmp_path, capsys):
        assert run(["solve", str(tmp_path / "absent.json")]) == 2

    def test_invalid_json_config(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert run(["solve", str(p)]) == 2

    def test_rejected_config(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"horizon": -1.0, "dimension": 1,
                                 "segments": []}))
        assert run(["solve", str(p)]) == 2

    def test_unknown_flag(self, zero_config_path, capsys):
        assert run(["solve", zero_config_path, "--bogus"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["explode"]) == 2

    def test_no_arguments(self, capsys):
        assert run([]) == 2

    def test_help(self, capsys):
        assert run(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["0.0", "1e-9", "nan", "inf", "1e400"])
    def test_quad_tolerance_flag_is_gone(self, tol, zero_config_path, capsys):
        # density laws are integrated exactly, so no tolerance is taken
        assert run(["solve", zero_config_path, "--tol-quad", tol]) == 2
        assert "unrecognized arguments: --tol-quad" in capsys.readouterr().err

    def test_atoms_max_outside_series_examples(self, capsys):
        assert run(["reproduce", "--example", "4", "--atoms-max", "50"]) == 2

    def test_atoms_max_too_small(self, capsys):
        assert run(["reproduce", "--example", "5", "--atoms-max", "1"]) == 2

    @pytest.mark.parametrize("edit", [
        lambda c: c.update(horizon=math.nan),
        lambda c: c.update(horizon=10 ** 400),
        lambda c: c["segments"][0].update(b=math.nan),
        lambda c: c["segments"][0].update(c=math.inf),
        lambda c: c.update(atoms=[{"time": 0.5, "points": [[0.5], [-0.5]],
                                   "masses": [0.2, math.nan]}]),
        lambda c: c["segments"][0].update(jumps={
            "family": "gaussian", "mean": 0.0, "variance": 0.01,
            "rate": math.inf}),
    ], ids=["nan_horizon", "huge_int_horizon", "nan_drift", "inf_covariance", "nan_atom_mass",
            "inf_jump_rate"])
    def test_non_finite_config_number(self, edit, tmp_path, capsys):
        config = copy.deepcopy(ZERO_CONFIG)
        edit(config)
        p = tmp_path / "non_finite.json"
        p.write_text(json.dumps(config))     # written as NaN / Infinity
        assert run(["solve", str(p)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("jumps,key", [
        ({"family": "finite_atoms", "points": [[0.5]], "masses": 5}, "jumps.masses"),
        ({"family": "tabulated", "x": 3, "density": [1.0, 1.0], "quadrature": "trapezoid"},
         "jumps.x"),
        ({"family": ["gaussian"]}, "jumps.family"),
    ], ids=["scalar_masses", "scalar_grid", "list_family"])
    def test_malformed_jump_spec(self, jumps, key, tmp_path, capsys):
        config = copy.deepcopy(ZERO_CONFIG)
        config["segments"][0]["jumps"] = jumps
        p = tmp_path / "jumps.json"
        p.write_text(json.dumps(config))
        assert run(["solve", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"config.segments[0].{key}: expected a" in err

    @pytest.mark.parametrize("jumps,scale", [
        ({"family": "gaussian", "mean": 0.0, "variance": 90000.0, "rate": 1.0}, "900"),
        ({"family": "exp_tails", "c_minus": 0.5, "a": 0.004, "c_plus": 0.5, "b": 5.0}, "750"),
    ], ids=["gaussian", "exp_tails"])
    @pytest.mark.parametrize("kind", ["mv", "mmv"])
    def test_log_term_law_past_the_exp_range(self, jumps, scale, kind, tmp_path, capsys):
        # e^x of the support scale overflows: the config is rejected, not
        # an internal OverflowError
        config = copy.deepcopy(ZERO_CONFIG)
        config["yield_transform"] = "exp"
        config["segments"][0].update(c=[[0.04]], jumps=jumps)
        p = tmp_path / "log_terms.json"
        p.write_text(json.dumps(config))
        assert run(["solve", str(p), "--kind", kind]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "rejected" in err and f"below 709, not {scale}" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("rule", [None, "simpson", 1, ["trapezoid"]],
                             ids=["missing", "simpson", "number", "list"])
    def test_tabulated_law_needs_the_trapezoid_rule(self, rule, tmp_path, capsys):
        jumps = {"family": "tabulated", "x": [-0.5, 0.5], "density": [0.1, 0.1]}
        if rule is not None:
            jumps["quadrature"] = rule
        config = copy.deepcopy(ZERO_CONFIG)
        config["segments"][0]["jumps"] = jumps
        p = tmp_path / "quadrature.json"
        p.write_text(json.dumps(config))
        assert run(["solve", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "config.segments[0].jumps" in err and "quadrature" in err

    @pytest.mark.parametrize("kind", ["mv", "mmv"])
    def test_optimum_beyond_the_float_range(self, kind, tmp_path, capsys):
        # lam = b / c overflows: flagged unbounded, values infinite
        config = copy.deepcopy(ZERO_CONFIG)
        config["segments"][0].update(b=[1e300], c=[[1e-300]])
        p = tmp_path / "overflow.json"
        p.write_text(json.dumps(config))
        assert run(["solve", str(p), "--kind", kind]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out.lower()
        report = json.loads(out)
        row = report["solution"]["per_time"][0]
        assert row["boundedness"] == "unbounded_flagged"
        assert row["direction"]["value"] == [0.0]
        assert row["local_value"]["value"] == 0.0
        assert report["solution"]["values"]["dual_value"]["value"] == "inf"
        assert report["warnings"]


    def test_several_dimensional_free_lunch_is_flagged(self, tmp_path, capsys):
        # B0 = (0.05, 0.05) drives lam = (1, 1) past both bliss points,
        # where the atoms no longer curve the value: unbounded
        config = {"horizon": 1.0, "dimension": 2, "segments": [{
            "t_start": 0.0, "t_end": 1.0, "b_kind": "trunc", "b": [0.2, 0.2],
            "c": [[0.0, 0.0], [0.0, 0.0]],
            "jumps": {"family": "finite_atoms", "points": [[0.5, 0.0], [0.0, 0.5]],
                      "masses": [0.3, 0.3]}}]}
        p = tmp_path / "free_lunch.json"
        p.write_text(json.dumps(config))
        assert run(["solve", str(p), "--kind", "mmv"]) == 0
        report = json.loads(capsys.readouterr().out)
        row = report["solution"]["per_time"][0]
        assert row["boundedness"] == "unbounded_flagged"
        assert row["direction"]["value"] == [0.0, 0.0]
        assert row["local_value"]["value"] == 0.0
        assert any("unbounded" in w for w in report["warnings"])


_JUMP_SPECS = [
    {"family": "finite_atoms", "points": [[0.5], [-0.5]], "masses": [0.2, 0.3]},
    {"family": "gaussian", "mean": 0.0, "variance": 0.01, "rate": 1.0},
    {"family": "exp_tails", "c_minus": 1.0, "a": 8.0, "c_plus": 1.0, "b": 8.0},
    {"family": "tabulated", "x": [-0.5, 0.0, 0.5], "density": [0.1, 0.4, 0.1],
     "quadrature": "trapezoid"},
]
_JUNK = [None, True, -1, 0, 2.5, math.nan, math.inf, 10 ** 400, "", "exp", "zero",
         "finite_atoms", [], [0.1], [[0.1]], [[0.1, 0.2], [0.2, 0.1]], {},
         {"family": "gaussian"}]


def _junk(draw):
    return copy.deepcopy(draw(st.sampled_from(_JUNK)))


def _mutate(obj, draw):
    """Delete a key of obj, set one (known or new) to junk, or add one."""
    keys = sorted(obj)
    how = draw(st.sampled_from(["delete", "junk", "junk", "unknown"]))
    if how == "delete" and keys:
        del obj[draw(st.sampled_from(keys))]
    elif how == "unknown":
        obj["weight"] = 1.0
    else:
        obj[draw(st.sampled_from(keys or ["horizon"]))] = _junk(draw)


@st.composite
def mutated_configs(draw):
    """A valid config with one to three of its top-level keys, segments
    entries or jump specs broken."""
    config = {"horizon": 1.0, "dimension": 1, "yield_transform": "none",
              "segments": [{"t_start": 0.0, "t_end": 0.5, "b_kind": "trunc",
                            "b": 0.1, "c": 0.04},
                           {"t_start": 0.5, "t_end": 1.0, "b_kind": "zero", "b": 0.05,
                            "c": 0.02, "jumps": copy.deepcopy(
                                draw(st.sampled_from(_JUMP_SPECS)))}],
              "atoms": [{"time": 1.0, "points": [[0.5], [-0.5]], "masses": [0.5, 0.5]}]}
    for _ in range(draw(st.integers(1, 3))):
        segments = config.get("segments")
        where = draw(st.sampled_from(["top", "segments", "entry", "jumps"]))
        if where == "top" or not isinstance(segments, list) or not segments:
            _mutate(config, draw)
        elif where == "segments":
            segments[draw(st.integers(0, len(segments) - 1))] = _junk(draw)
        else:
            seg = segments[draw(st.integers(0, len(segments) - 1))]
            if not isinstance(seg, dict):
                continue
            if where == "jumps" and isinstance(seg.get("jumps"), dict):
                seg = seg["jumps"]
            _mutate(seg, draw)
    return config


@given(mutated_configs())
@settings(max_examples=150, deadline=None)
def test_rejected_configs_exit_2_without_output(config):
    # a config the model builder rejects never reaches the solver: exit
    # 2, empty stdout, and an error message rather than an internal one
    try:
        build_model(copy.deepcopy(config))
    except MmvLabError:
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(["solve", str(path)])
        assert (code, out.getvalue()) == (2, "")
        assert "rejected" in err.getvalue() and "internal error" not in err.getvalue()


class TestReproduce:
    def test_example_4_passes_in_text_format(self, capsys):
        assert run(["reproduce", "--example", "4", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out
        assert "all_pass = true" in out

    def test_example_6_truncated(self, capsys):
        assert run(["reproduce", "--example", "6", "--atoms-max", "80"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_pass"] is True
        assert report["figures"]["quadratic_finite"] is False

    def test_selftest(self, capsys):
        assert run(["selftest"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_pass"] is True


TABLE_KEYS = ["1", "2", "3", "4", "5", "6", "selftest"]
ROW_KEYS = {"name", "value", "negate", "expected", "expected_from", "tol", "mode",
            "source", "default_atoms_only"}


class TestExpectedTable:
    def test_every_example_and_selftest_has_rows(self):
        assert sorted(expected_figures()) == TABLE_KEYS
        assert all(expected_figures()[k]["checks"] for k in TABLE_KEYS)

    @pytest.mark.parametrize("key", TABLE_KEYS)
    def test_rows_are_well_formed(self, key):
        rows = expected_figures()[key]["checks"]
        names = [r["name"] for r in rows]
        assert len(set(names)) == len(names)
        for r in rows:
            assert set(r) <= ROW_KEYS, r
            assert r["mode"] in ("abs", "le", "ge", "eq"), r
            assert ("tol" in r) == (r["mode"] == "abs"), r
            assert ("expected" in r) != ("expected_from" in r), r

    @pytest.mark.parametrize("key", TABLE_KEYS)
    def test_every_row_names_a_returned_value(self, key):
        # a renamed figure must fail here, not silently drop its check
        values = (_selftest_values() if key == "selftest"
                  else _REPRODUCERS[int(key)]()[1])
        for r in expected_figures()[key]["checks"]:
            for path in (r.get("value", r["name"]), r.get("expected_from")):
                if path is not None:
                    _lookup(values, path)


class TestFormats:
    def test_csv(self, zero_config_path, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert run(["solve", zero_config_path, "--format", "csv",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",", 1)[0] for line in lines[1:]}
        assert "solution.values.dual_value.value" in keys
        assert "model.horizon.value" in keys

    def test_text(self, zero_config_path, capsys):
        assert run(["solve", zero_config_path, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "solution.values.dual_value.value = 0" in out

    def test_every_number_is_tagged(self, zero_config_path, capsys):
        assert run(["solve", zero_config_path]) == 0
        report = json.loads(capsys.readouterr().out)
        node = report["solution"]["values"]["best_utility"]
        assert set(node) >= {"value", "source"}
        assert node["source"] in ("analytic", "mc", "heuristic")


class TestDivergentModel:
    def test_infinite_values_are_results(self, tmp_path, capsys):
        p = tmp_path / "divergent.json"
        p.write_text(json.dumps(divergent_config()))
        assert run(["solve", str(p)]) == 0
        report = json.loads(capsys.readouterr().out)
        values = report["solution"]["values"]
        assert values["dual_value"]["value"] == "inf"
        assert values["wealth_scale"]["value"] == "inf"
        assert values["finite"] is False
        assert values["dual_value"]["source"] == "heuristic"
        assert report["warnings"]


class TestSimulate:
    def test_deterministic_reports(self, zero_config_path, tmp_path, capsys):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["simulate", zero_config_path, "--paths", "64", "--seed", "9"]
        assert run(argv + ["--out", str(f1)]) == 0
        assert run(argv + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_zero_model_statistics(self, zero_config_path, capsys):
        assert run(["simulate", zero_config_path, "--paths", "16"]) == 0
        report = json.loads(capsys.readouterr().out)
        est = report["estimates"]
        assert est["terminal_wealth_mean"]["value"] == 0.0
        assert est["terminal_wealth_mean"]["source"] == "mc"
        assert "se" in est["terminal_wealth_mean"]
        assert "pull" not in est["terminal_wealth_mean"]    # se is 0

    @pytest.mark.parametrize("kind,with_pull", [
        ("mv", {"terminal_wealth_mean", "terminal_wealth_second_moment",
                "expected_utility"}),
        ("mmv", {"prob_wealth_ge_one", "expected_utility", "density_mean",
                 "density_second_moment"})])
    def test_pulls_against_analytic_values(self, kind, with_pull, capsys):
        ex2 = str(Path(mmvlab.__file__).parent / "examples_data" / "ex2.json")
        # Only a jump crosses bliss and antithetic partners share their
        # jumps, so the crossing count needs a few hundred pairs to be
        # nonzero (an estimate with se 0 carries no pull).
        assert run(["simulate", ex2, "--kind", kind, "--paths", "1000",
                    "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        values = {k: v["value"] for k, v in report["values"].items()
                  if isinstance(v, dict)}
        model = mmvlab.example_model(2)
        targets = {
            "terminal_wealth_mean": values["max_squared_hansen"],
            "terminal_wealth_second_moment": values["max_squared_hansen"],
            "expected_utility": values["best_utility"],
            "prob_wealth_ge_one": mmvlab.zero_density_probability(
                model, solve_schedule(model, "mmv")),
            "density_mean": 1.0,
            "density_second_moment": values["wealth_scale"],
        }
        est = report["estimates"]
        pulled = {name for name, node in est.items()
                  if isinstance(node, dict) and "pull" in node}
        assert pulled == with_pull
        for name in with_pull:
            node = est[name]
            want = (node["value"] - targets[name]) / node["se"]
            assert node["pull"] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_bad_path_count(self, zero_config_path, capsys):
        assert run(["simulate", zero_config_path, "--paths", "0"]) == 2
        # antithetic estimates need two complete pairs
        assert run(["simulate", zero_config_path, "--paths", "3"]) == 2
        assert capsys.readouterr().out == ""
        assert run(["simulate", zero_config_path, "--paths", "4"]) == 0

    def test_bad_seed(self, zero_config_path, capsys):
        for seed in ("-1", str(2 ** 64)):
            assert run(["simulate", zero_config_path, "--paths", "4", "--seed", seed]) == 2
        assert capsys.readouterr().out == ""

    def test_step_count_flag_is_gone(self, zero_config_path, capsys):
        # the study draws no step grid
        assert run(["simulate", zero_config_path, "--paths", "4", "--steps", "4"]) == 2
        assert capsys.readouterr().out == ""


def test_diagnose_zero_model(zero_config_path, capsys):
    assert run(["diagnose", zero_config_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["no_arbitrage"]["holds"] is True
    assert report["comparison"]["verdict"] == "coincide"


def test_diagnose_with_an_unbounded_time_point_reports_not_applicable(
        unbounded_config, tmp_path, capsys):
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(unbounded_config))
    assert run(["diagnose", str(path)]) == 0
    comparison = json.loads(capsys.readouterr().out)["comparison"]
    assert comparison["verdict"] == "not_applicable"
    assert comparison["note"] == "monotone dual value is infinite"


def test_diagnose_solves_each_kind_once(monkeypatch, capsys):
    calls = []

    def counting(model, kind):
        calls.append(str(kind))
        return solve_schedule(model, kind)

    for module in (mmvlab.aggregate, mmvlab.cli, mmvlab.duality):
        monkeypatch.setattr(module, "solve_schedule", counting)
    ex1 = str(Path(mmvlab.__file__).parent / "examples_data" / "ex1.json")
    assert run(["diagnose", ex1]) == 0
    assert sorted(calls) == ["mmv", "mv"]


def test_diagnose_example_1_is_exact(capsys):
    # the monotone optimum is (1/2, 1/2) and the plain one 105/221 each
    ex1 = str(Path(mmvlab.__file__).parent / "examples_data" / "ex1.json")
    assert run(["diagnose", ex1]) == 0
    report = json.loads(capsys.readouterr().out)
    gap = report["comparison"]["max_direction_gap"]["value"]
    assert gap == pytest.approx(11 / 652, rel=1e-12)
    resid = report["monotone"]["density"]["max_martingale_residual"]["value"]
    assert resid <= 1e-14


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "mmvlab", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "usage" in proc.stdout
