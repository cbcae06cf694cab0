"""Command line front end.

Five subcommands cover the workflow: `solve` a model config, `simulate`
its optimal strategy by Monte Carlo, `diagnose` the dual side,
`reproduce` the bundled examples against their expected figures, and
`selftest` for a fast end-to-end sanity run.

Reports are deterministic for fixed arguments; wall-clock timing and
progress go to stderr only.  Every computed number carries a source
tag: analytic, mc (with a standard error), or heuristic.  Exit codes:
0 success, 1 computation failure or failed checks, 2 usage or config
error.  Non-finite numbers are serialized as the strings "inf",
"-inf", "nan" in JSON and CSV output.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .aggregate import (INFINITE_VALUES, GlobalValues, Solution,
                        cumulative_local_utility, global_values, solve_schedule)
from .duality import (compare_mv_mmv, density_diagnostics,
                      mellin_sign_moments, mv_signed_measure,
                      sigma_martingale_residual, zero_density_probability)
from .errors import InfiniteValue, InvariantError, MmvLabError, SchemaError
from .examples import DEFAULT_ATOMS_MAX, _bet_indices, example_model, expected_figures
from .localutil import check_instantaneous_no_arbitrage, local_utility
from .model import build_model
from .montecarlo import SimConfig, estimate_stats, run_wealth_study
from .optimize import foc_residual

_MAX_PER_TIME_ROWS = 24


class _UsageError(Exception):
    """Bad flags or an unreadable/invalid config: exit code 2."""


# ---------------------------------------------------------------------------
# report plumbing


def _json_safe(value):
    """Recursively convert to JSON-clean types; non-finite floats to strings."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return value


def _v(value, source: str = "analytic", se=None) -> dict:
    """Tag a computed number with its provenance."""
    node = {"value": value, "source": source}
    if se is not None:
        node["se"] = float(se)
    return node


def _stat(ps, target=None) -> dict:
    """A Monte Carlo estimate; with an analytic target, also its pull,
    (estimate - target) / se, when the standard error is positive."""
    node = _v(float(ps.estimate), "mc", se=float(ps.std_error))
    if target is not None and ps.std_error > 0.0:
        node["pull"] = (float(ps.estimate) - target) / float(ps.std_error)
    return node


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if value is None:
        return ""
    return str(value)


def _is_check_list(value) -> bool:
    return (isinstance(value, list) and value
            and all(isinstance(c, dict) and "pass" in c and "name" in c
                    for c in value))


def _walk(obj, prefix: str, checks: bool):
    """(dotted key, leaf) pairs of a report in order.  With `checks`, each
    entry of a check list under "checks" is one (key, entry) pair."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        yield prefix, obj
        return
    for k, v in items:
        key = f"{prefix}.{k}" if prefix else str(k)
        if checks and k == "checks" and _is_check_list(v):
            yield from ((key, c) for c in v)
        else:
            yield from _walk(v, key, checks)


def _render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows((key, _fmt_cell(v)) for key, v in _walk(report, "", False))
    return buf.getvalue()


def _check_line(key: str, c: dict) -> str:
    detail = f"actual={_fmt_cell(c['actual'])}"
    if c["mode"] == "abs":
        detail += f" expected={_fmt_cell(c['expected'])} tol={_fmt_cell(c['tol'])}"
    elif c["mode"] in ("le", "ge"):
        sign = "<=" if c["mode"] == "le" else ">="
        detail += f" {sign} {_fmt_cell(c['expected'])}"
    else:
        detail += f" expected={_fmt_cell(c['expected'])}"
    word = "PASS" if c["pass"] else "FAIL"
    return f"{word} {key}.{c['name']}: {detail} [{c['source']}]"


def _render_text(report: dict) -> str:
    lines = [_check_line(key, v) if isinstance(v, dict) else f"{key} = {_fmt_cell(v)}"
             for key, v in _walk(report, "", True)]
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    report = _json_safe(report)
    if args.format == "json":
        payload = json.dumps(report, indent=2) + "\n"
    elif args.format == "csv":
        payload = _render_csv(report)
    else:
        payload = _render_text(report)
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _load_model(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read config {path!r}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config {path!r} is not valid JSON: {exc}") from exc
    try:
        return build_model(config)
    except (SchemaError, InvariantError) as exc:
        raise _UsageError(f"config {path!r} rejected: {exc}") from exc


def _model_summary(model) -> dict:
    return {
        "horizon": _v(model.horizon),
        "dimension": model.dim,
        "n_segments": len(model.segments),
        "n_scheduled_jumps": len(model.atoms),
    }


def _opt_row(label: str, when: dict, opt) -> dict:
    row = {"type": label}
    row.update(when)
    row.update({
        "direction": _v([float(x) for x in opt.lambda_hat]),
        "local_value": _v(opt.value),
        "foc_residual": (None if opt.foc_residual is None
                         else _v([float(x) for x in opt.foc_residual])),
        "boundedness": opt.boundedness,
        "tie_break_applied": opt.tie_break_applied,
    })
    return row


def _solution_rows(model, sol) -> tuple[list, bool]:
    """Rows of the per-time table, segments first; the middle of a long
    table is cut, and only the rows shown are built."""
    n_seg = len(model.segments)
    total = n_seg + len(model.atoms)
    shown = range(total)
    if total > _MAX_PER_TIME_ROWS:
        shown = [*range(_MAX_PER_TIME_ROWS - 4), *range(total - 4, total)]
    rows = []
    for k in shown:
        if k < n_seg:
            seg = model.segments[k]
            rows.append(_opt_row("segment", {"t_start": _v(seg.t_start),
                                             "t_end": _v(seg.t_end)},
                                 sol.segment_optima[k]))
        else:
            rows.append(_opt_row("scheduled_jump",
                                 {"time": _v(float(model.atoms.times[k - n_seg]))},
                                 sol.atom_optima[k - n_seg]))
    return rows, total > _MAX_PER_TIME_ROWS


def _values_block(gv: GlobalValues, source: str) -> dict:
    return {
        "best_utility": _v(gv.u0, source),
        "dual_value": _v(gv.v0, source),
        "max_squared_sharpe": _v(gv.msr2, source),
        "max_squared_hansen": _v(gv.mhr2, source),
        "wealth_scale": _v(gv.scale, source),
        "finite": gv.finite,
    }


def _solve_bundle(model, kind: str):
    """Solve, aggregate, and classify finiteness.

    Returns (solution, cumulative-or-None, global values, warnings,
    source tag for the value block).
    """
    warnings: list[str] = []
    sol = solve_schedule(model, kind)
    try:
        cu = cumulative_local_utility(model, kind, sol)
    except InfiniteValue as exc:
        warnings.append(f"{kind}: {exc}")
        return sol, None, INFINITE_VALUES, warnings, "analytic"
    gv = global_values(cu)
    source = "analytic"
    if not cu.finite:
        source = "heuristic"
        warnings.append(
            f"{kind}: cumulative series flagged divergent by the "
            "partial-sum heuristic; values reported as infinite")
    return sol, cu, gv, warnings, source


def _cumulative_block(cu, source: str) -> dict | None:
    if cu is None:
        return None
    return {
        "continuous_part": _v(cu.continuous_part, source),
        "jump_increment_sum": _v(cu.increment_sum, source),
        "n_jump_increments": cu.atom_increments.size,
        "finite": cu.finite,
    }


# ---------------------------------------------------------------------------
# solve / simulate / diagnose


def _cmd_solve(args) -> int:
    model = _load_model(args.config)
    sol, cu, gv, warnings, source = _solve_bundle(model, args.kind)
    rows, truncated = _solution_rows(model, sol)
    report = {
        "command": {"name": "solve", "config": args.config, "kind": args.kind},
        "model": _model_summary(model),
        "solution": {
            "per_time": rows,
            "per_time_truncated": truncated,
            "cumulative": _cumulative_block(cu, source),
            "values": _values_block(gv, source),
        },
        "warnings": warnings,
    }
    _emit(report, args)
    return 0


def _cmd_simulate(args) -> int:
    model = _load_model(args.config)
    if args.paths < 4:
        # antithetic estimates need two complete pairs of paths
        raise _UsageError("--paths must be at least 4")
    try:
        sim = SimConfig(n_paths=args.paths, seed=args.seed)
    except InvariantError as exc:
        raise _UsageError(f"--{exc}") from None
    sol, cu, gv, warnings, source = _solve_bundle(model, args.kind)
    # Wealth is normalized to bliss level 1 (x=0, gamma=1, scale=1) so the
    # estimates line up with the dimensionless analytic ratios.
    study = run_wealth_study(model, sim, args.kind, solution=sol)
    anti = sim.antithetic
    util_functional = f"utility_{args.kind}"
    # analytic values of the normalized optimum, where the theory gives one
    targets = {}
    if gv.finite:
        targets["expected_utility"] = gv.u0
        if args.kind == "mv":
            targets["terminal_wealth_mean"] = gv.mhr2
            targets["terminal_wealth_second_moment"] = gv.mhr2
        else:
            targets["prob_wealth_ge_one"] = zero_density_probability(model, sol)
            targets["density_mean"] = 1.0
            targets["density_second_moment"] = gv.scale
    estimates = {
        name: _stat(estimate_stats(study.terminal_wealth, functional, anti),
                    targets.get(name))
        for name, functional in (
            ("terminal_wealth_mean", "mean"),
            ("terminal_wealth_second_moment", "second_moment"),
            ("prob_wealth_ge_one", "prob_ge_one"),
            ("expected_utility", util_functional))
    }
    if gv.finite and gv.mhr2 < 1.0:
        z = study.capped_exponential / (1.0 - gv.mhr2)
        estimates["density_mean"] = _stat(estimate_stats(z, "mean", anti),
                                          targets.get("density_mean"))
        estimates["density_second_moment"] = _stat(
            estimate_stats(z, "second_moment", anti),
            targets.get("density_second_moment"))
    else:
        warnings.append("dual density undefined (infinite value); "
                        "density estimates omitted")
    estimates["terminal_increment_mean"] = [
        _stat(estimate_stats(study.terminal_increment[:, i], "mean", anti))
        for i in range(model.dim)
    ]
    report = {
        "command": {"name": "simulate", "config": args.config,
                    "kind": args.kind, "paths": args.paths,
                    "seed": args.seed, "antithetic": anti},
        "model": _model_summary(model),
        "values": _values_block(gv, source),
        "wealth_normalization": {"x": _v(0.0), "gamma": _v(1.0),
                                 "bliss": _v(1.0)},
        "estimates": estimates,
        "warnings": warnings,
    }
    _emit(report, args)
    return 0


def _diag_monotone(model) -> tuple[dict, list[str], Solution]:
    sol, cu, gv, warnings, source = _solve_bundle(model, "mmv")
    block: dict = {"values": _values_block(gv, source)}
    if gv.finite:
        diag = density_diagnostics(model, solution=sol)
        max_resid = float(np.abs(diag.sigma_mart_residual).max(initial=0.0))
        block["density"] = {
            "mean": _v(diag.mean),
            "second_moment": _v(diag.second_moment),
            "variance": _v(diag.variance),
            "p_zero": _v(diag.p_zero),
            "max_martingale_residual": _v(max_resid),
            "equivalent": diag.equivalent,
            "is_sigma_martingale": diag.is_sigma_martingale,
        }
    else:
        block["density"] = None
        warnings.append("monotone dual value is infinite; "
                        "no density candidate exists")
    return block, warnings, sol


def _diag_quadratic(model) -> tuple[dict, list[str], Solution]:
    sol, cu, gv, warnings, source = _solve_bundle(model, "mv")
    block: dict = {"values": _values_block(gv, source)}
    if gv.finite:
        meas = mv_signed_measure(model, solution=sol)
        block["signed_measure"] = {
            "mean": _v(meas.mean),
            "variance": _v(meas.variance),
            "negative_mass": _v(meas.negative_mass),
            "is_probability": meas.is_probability,
        }
    else:
        block["signed_measure"] = None
        warnings.append("quadratic dual value is infinite; "
                        "no separating measure exists")
    return block, warnings, sol


def _cmd_diagnose(args) -> int:
    model = _load_model(args.config)
    na = check_instantaneous_no_arbitrage(model)
    na_block = {
        "holds": na.holds,
        "witness_time": None if na.witness_time is None else _v(na.witness_time),
        "witness_direction": (None if na.witness_direction is None
                              else _v([float(x) for x in na.witness_direction])),
        "n_atom_violations": len(na.atom_violations),
    }
    mono, warn_m, sol_mmv = _diag_monotone(model)
    quad, warn_q, sol_mv = _diag_quadratic(model)
    cmp_report = compare_mv_mmv(model, mv_solution=sol_mv,
                                mmv_solution=sol_mmv)
    comparison = {
        "verdict": cmp_report.verdict,
        "square_integrable": cmp_report.square_integrable,
        "cap_condition": cmp_report.cap_condition,
        "max_direction_gap": (None if cmp_report.max_lambda_gap is None
                              else _v(cmp_report.max_lambda_gap)),
        "note": cmp_report.note,
    }
    report = {
        "command": {"name": "diagnose", "config": args.config},
        "model": _model_summary(model),
        "no_arbitrage": na_block,
        "monotone": mono,
        "quadratic": quad,
        "comparison": comparison,
        "warnings": warn_m + warn_q,
    }
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# reproduce


def _reproduce_1(atoms_max=None):
    model = example_model(1)
    sol, cu, gv, warnings, source = _solve_bundle(model, "mmv")
    diag = density_diagnostics(model, solution=sol)
    chars = model.atoms[0].chars
    return model, {
        "density_variance": diag.variance,
        "best_utility_doubled": 2.0 * gv.u0,
        "dual_value": gv.v0,
        "unit_strategy_values": [local_utility(e, chars, "mmv")
                                 for e in ([1.0, 0.0], [0.0, 1.0])],
        "p_zero": diag.p_zero,
        "equivalent": diag.equivalent,
        "atom_optimum": sol.atom_optima[0].value,
    }, warnings


def _reproduce_2(atoms_max=None):
    model = example_model(2)
    seg = model.segments[0]
    jumps = seg.chars.jumps
    sol_mv, cu_mv, gv_mv, warn_v, _ = _solve_bundle(model, "mv")
    sol_mmv, cu_mmv, gv_mmv, warn_m, _ = _solve_bundle(model, "mmv")
    lam_mv = sol_mv.segment_optima[0].lambda_hat
    lam_mmv = sol_mmv.segment_optima[0].lambda_hat
    sm1 = mellin_sign_moments(model, sol_mv, 1)
    sm2 = mellin_sign_moments(model, sol_mv, 2)
    capped_mean = 1.0 - sm1.phi_plus
    capped_second = 1.0 - 2.0 * sm1.phi_plus + sm2.phi_plus
    return model, {
        "quadratic_direction": float(lam_mv[0]),
        "quadratic_local_value_doubled": 2.0 * sol_mv.segment_optima[0].value,
        "quadratic_dual_doubled": gv_mv.msr2,
        "monotone_direction": float(lam_mmv[0]),
        "monotone_crossing_intensity":
            seg.length * jumps.mass_scaled_ge(lam_mmv, 1.0, strict=False),
        "p_zero": zero_density_probability(model, sol_mmv),
        "monotone_dual_doubled": gv_mmv.msr2,
        "terminal_wealth_capped_mean": capped_mean,
        "terminal_wealth_capped_second_moment": capped_second,
        "terminal_wealth_excess_mean": sm1.phi_minus,
        "terminal_wealth_excess_second_moment": 2.0 * sm1.phi_minus + sm2.phi_minus,
        "terminal_wealth_mean": gv_mv.mhr2,
        "capped_mean_square_ratio": capped_mean ** 2 / capped_second,
        "quadratic_strict_crossing_intensity":
            seg.length * jumps.mass_scaled_ge(lam_mv, 1.0, strict=True),
    }, warn_v + warn_m


def _reproduce_3(atoms_max=None):
    model = example_model(3)
    seg = model.segments[0]
    sol_mmv, cu_mmv, gv_mmv, warn_m, _ = _solve_bundle(model, "mmv")
    sol_mv = solve_schedule(model, "mv")
    lam = sol_mmv.segment_optima[0].lambda_hat
    lam0 = float(lam[0])
    residuals = sigma_martingale_residual(model, sol_mmv, "mmv")
    return model, {
        "monotone_direction": lam0,
        "crossing_intensity": seg.length * seg.chars.jumps.mass_scaled_ge(lam, 1.0, strict=False),
        "p_zero": zero_density_probability(model, sol_mmv),
        "max_martingale_residual": float(np.abs(residuals).max()),
        "quadratic_direction": float(sol_mv.segment_optima[0].lambda_hat[0]),
        "coincidence_verdict": compare_mv_mmv(model, mv_solution=sol_mv,
                                              mmv_solution=sol_mmv).verdict,
        "direction_intensity": lam0 / (1.0 + lam0),
    }, warn_m


def _reproduce_4(atoms_max=None):
    model = example_model(4)
    chars = model.segments[0].chars
    sol, cu, gv, warnings, _ = _solve_bundle(model, "mmv")
    diag = density_diagnostics(model, solution=sol)
    return model, {
        "monotone_direction": float(sol.segment_optima[0].lambda_hat[0]),
        "equivalent": diag.equivalent,
        "martingale_residual": float(sigma_martingale_residual(model, sol, "mmv")[0, 0]),
        "identity_drift": float(foc_residual([0.0], chars, "mv")[0]),
        "boundedness": sol.segment_optima[0].boundedness,
    }, warnings


def _reproduce_5(atoms_max=None):
    n_max = DEFAULT_ATOMS_MAX[5] if atoms_max is None else atoms_max
    model = example_model(5, atoms_max=n_max)
    sol_mv, cu_mv, gv_mv, warn_v, src_v = _solve_bundle(model, "mv")
    sol_mmv, cu_mmv, gv_mmv, warn_m, src_m = _solve_bundle(model, "mmv")

    n = np.arange(2, len(model.atoms) + 2)
    late = n >= 10
    mv, mmv = sol_mv.atom_optima, sol_mmv.atom_optima

    def worst(value: np.ndarray, target: float) -> float:
        return float(np.max(n[late] * np.abs(value[late] - target), initial=0.0))

    return model, {
        "atoms_max": n_max,
        "worst_direction_margin": worst(mv.lambda_hat[:, 0], 1.5),
        "worst_rate_margin": worst(mv.value / model.atoms.weights, 1.125),
        "worst_hansen_margin": worst(2.0 * mmv.value, 0.5),
        "first_bet_quadratic_direction": float(mv.lambda_hat[0, 0]),
        "first_bet_squared_hansen": 2.0 * float(mv.value[0]),
        "first_bet_monotone_direction": float(mmv.lambda_hat[0, 0]),
        "first_bet_monotone_squared_hansen": 2.0 * float(mmv.value[0]),
        "quadratic_series_partial": cu_mv.increment_sum,
        "quadratic_series_tail": cu_mv.tail_sum,
        "quadratic_series_finite": cu_mv.finite,
        "monotone_series_partial": cu_mmv.increment_sum,
        "monotone_series_finite": cu_mmv.finite,
        "quadratic_series_tail_bound": 0.01 * (1.0 + abs(cu_mv.increment_sum)),
    }, warn_v + warn_m


def _reproduce_6(atoms_max=None):
    n_max = DEFAULT_ATOMS_MAX[6] if atoms_max is None else atoms_max
    model = example_model(6, atoms_max=n_max)
    sol_mv, cu_mv, gv_mv, warn_v, src_v = _solve_bundle(model, "mv")
    sol_mmv, cu_mmv, gv_mmv, warn_m, src_m = _solve_bundle(model, "mmv")
    jumps = model.atoms
    n, _, cube = _bet_indices(len(jumps) + 1)
    hr2 = 2.0 * sol_mv.atom_optima.value
    # every bet has two outcomes; each mean is its law's own dot product
    mean = np.vecdot(jumps.masses.reshape(-1, 2), jumps.points[:, 0].reshape(-1, 2))
    try:
        mv_signed_measure(model, solution=sol_mv)
        separating = True
    except InfiniteValue as exc:
        separating = False
        warn_v.append(str(exc))
    return model, {
        "atoms_max": n_max,
        "worst_hansen_deviation": float(np.max(np.abs(hr2 - 1.0 / (n + 1.0)), initial=0.0)),
        "worst_mean_deviation":
            float(np.max(np.abs(mean + n / (cube.astype(float) + 1.0)), initial=0.0)),
        "first_bet_quadratic_direction": float(sol_mv.atom_optima.lambda_hat[0, 0]),
        "quadratic_finite": gv_mv.finite,
        "monotone_finite": gv_mmv.finite,
        "separating_measure_exists": separating,
    }, warn_v + warn_m


_REPRODUCERS = {1: _reproduce_1, 2: _reproduce_2, 3: _reproduce_3,
                4: _reproduce_4, 5: _reproduce_5, 6: _reproduce_6}


def _lookup(values: dict, path: str):
    """The computed value at a dotted path, such as "unit_strategy_values.0"."""
    for key in path.split("."):
        values = values[int(key)] if isinstance(values, list) else values[key]
    return values


def _checks(rows: list, values: dict) -> list[dict]:
    """One pass/fail entry per row of the expected-figures table.
    Modes: abs (|a-e|<=tol), le, ge, eq."""
    checks = []
    for row in rows:
        actual = _lookup(values, row.get("value", row["name"]))
        if row.get("negate"):
            actual = not actual
        expected = (_lookup(values, row["expected_from"]) if "expected_from" in row
                    else row["expected"])
        tol, mode = row.get("tol"), row["mode"]
        if mode == "abs":
            a = float(actual)
            ok = math.isfinite(a) and abs(a - float(expected)) <= tol
        elif mode == "le":
            ok = float(actual) <= float(expected)
        elif mode == "ge":
            ok = float(actual) >= float(expected)
        elif mode == "eq":
            ok = actual == expected
        else:
            raise ValueError(f"unknown check mode: {mode}")
        checks.append({"name": row["name"], "actual": actual, "expected": expected,
                       "tol": tol, "mode": mode, "pass": bool(ok),
                       "source": row.get("source", "analytic")})
    return checks


def _figure(value, source: str):
    """A computed value as a report figure: numbers tagged, flags and labels bare."""
    if isinstance(value, list):
        return [_v(x, source) for x in value]
    return _v(value, source) if isinstance(value, float) else value


def _run_reproduce(example_id: int, atoms_max) -> dict:
    t0 = time.perf_counter()
    model, values, warnings = _REPRODUCERS[example_id](atoms_max=atoms_max)
    elapsed = time.perf_counter() - t0
    table = expected_figures()[str(example_id)]
    rows = table["checks"]
    at_default = atoms_max in (None, DEFAULT_ATOMS_MAX.get(example_id))
    checks = _checks([r for r in rows if at_default or not r.get("default_atoms_only")],
                     values)
    # a value compared against is not a figure; a figure takes its checks' source
    against = {r["expected_from"] for r in rows if "expected_from" in r}
    sources = {r.get("value", r["name"]): r.get("source", "analytic") for r in rows}
    figures = {k: _figure(v, sources.get(k, "analytic"))
               for k, v in values.items() if k not in against}
    n_pass = sum(1 for c in checks if c["pass"])
    print(f"example {example_id}: {n_pass}/{len(checks)} checks passed "
          f"({elapsed:.2f}s)", file=sys.stderr)
    return {
        "example": example_id,
        "model": _model_summary(model),
        "figures": figures,
        "checks": checks,
        "warnings": warnings + ([table["note"]] if "note" in table else []),
        "all_pass": n_pass == len(checks),
    }


def _cmd_reproduce(args) -> int:
    ids = list(_REPRODUCERS) if args.example == "all" else [int(args.example)]
    if args.atoms_max is not None:
        if args.atoms_max < 2:
            raise _UsageError("--atoms-max must be at least 2")
        if not any(i in (5, 6) for i in ids):
            raise _UsageError("--atoms-max applies only to examples 5 and 6")
    blocks = [
        _run_reproduce(i, args.atoms_max if i in (5, 6) else None)
        for i in ids
    ]
    all_pass = all(b["all_pass"] for b in blocks)
    report: dict = {
        "command": {"name": "reproduce", "example": args.example,
                    "atoms_max": args.atoms_max},
        "all_pass": all_pass,
    }
    if len(blocks) == 1:
        report.update(blocks[0])
    else:
        report["examples"] = blocks
    _emit(report, args)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# selftest


def _selftest_values() -> dict:
    model1 = example_model(1)
    _, _, gv1, _, _ = _solve_bundle(model1, "mmv")
    model3 = example_model(3)
    sol3 = solve_schedule(model3, "mmv")
    model4 = example_model(4)
    sol4 = solve_schedule(model4, "mmv")
    # Pathwise identity: shortfall below bliss equals the capped product.
    study = run_wealth_study(example_model(2),
                             SimConfig(n_paths=64, seed=7), "mmv")
    shortfall = np.maximum(1.0 - study.terminal_wealth, 0.0)
    return {
        "two_asset_bet_utility_doubled": 2.0 * gv1.u0,
        "two_asset_bet_dual": gv1.v0,
        "one_sided_tails_direction": float(sol3.segment_optima[0].lambda_hat[0]),
        "heavy_tail_residual": float(sigma_martingale_residual(model4, sol4, "mmv")[0, 0]),
        "pathwise_identity_gap": float(np.abs(shortfall - study.capped_exponential).max()),
    }


def _cmd_selftest(args) -> int:
    checks = _checks(expected_figures()["selftest"]["checks"], _selftest_values())
    all_pass = all(c["pass"] for c in checks)
    n_pass = sum(1 for c in checks if c["pass"])
    print(f"selftest: {n_pass}/{len(checks)} checks passed", file=sys.stderr)
    report = {
        "command": {"name": "selftest"},
        "checks": checks,
        "all_pass": all_pass,
    }
    _emit(report, args)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_output_flags(sp) -> None:
    sp.add_argument("--out", default=None, metavar="PATH",
                    help="write the report to this file instead of stdout")
    sp.add_argument("--format", choices=("json", "csv", "text"),
                    default="json", help="report format (default json)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser; parsing leaves it as it is, so one serves a process."""
    parser = argparse.ArgumentParser(
        prog="mmvlab",
        description="dynamic mean-variance and monotone mean-variance "
                    "portfolio solver")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="optimize a model config")
    sp.add_argument("config", help="path to a model config (JSON)")
    sp.add_argument("--kind", choices=("mv", "mmv"), default="mmv")
    _add_output_flags(sp)

    sp = sub.add_parser("simulate", help="Monte Carlo wealth study")
    sp.add_argument("config", help="path to a model config (JSON)")
    sp.add_argument("--kind", choices=("mv", "mmv"), default="mmv")
    sp.add_argument("--paths", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    _add_output_flags(sp)

    sp = sub.add_parser("diagnose", help="dual-side diagnostics")
    sp.add_argument("config", help="path to a model config (JSON)")
    _add_output_flags(sp)

    sp = sub.add_parser("reproduce",
                        help="rebuild bundled examples and check figures")
    sp.add_argument("--example", choices=("1", "2", "3", "4", "5", "6", "all"),
                    default="all")
    sp.add_argument("--atoms-max", dest="atoms_max", type=int, default=None,
                    metavar="N", help="truncation index for examples 5 and 6")
    _add_output_flags(sp)

    sp = sub.add_parser("selftest", help="fast end-to-end sanity checks")
    _add_output_flags(sp)
    return parser


_DISPATCH = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "diagnose": _cmd_diagnose,
    "reproduce": _cmd_reproduce,
    "selftest": _cmd_selftest,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already written its message
        return 0 if exc.code in (0, None) else 2
    t0 = time.perf_counter()
    try:
        code = _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MmvLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1
    print(f"done in {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
