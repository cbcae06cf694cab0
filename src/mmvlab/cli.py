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
from .drift import drift_of_variation
from .errors import InfiniteValue, InvariantError, MmvLabError, SchemaError
from .examples import DEFAULT_ATOMS_MAX, _bet_indices, example_model
from .localutil import check_instantaneous_no_arbitrage, utility_variation
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


def _check(name: str, actual, expected, tol=None, mode: str = "abs",
           source: str = "analytic") -> dict:
    """One pass/fail entry.  Modes: abs (|a-e|<=tol), le, ge, eq."""
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
    return {"name": name, "actual": actual, "expected": expected,
            "tol": tol, "mode": mode, "pass": bool(ok), "source": source}


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if value is None:
        return ""
    return str(value)


def _flatten(obj, prefix: str, rows: list) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}.{i}" if prefix else str(i), rows)
    else:
        rows.append((prefix, _fmt_cell(obj)))


def _render_csv(report: dict) -> str:
    rows: list = []
    _flatten(report, "", rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return buf.getvalue()


def _is_check_list(value) -> bool:
    return (isinstance(value, list) and value
            and all(isinstance(c, dict) and "pass" in c and "name" in c
                    for c in value))


def _text_lines(obj, prefix: str, out: list) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            if k == "checks" and _is_check_list(v):
                for c in v:
                    word = "PASS" if c["pass"] else "FAIL"
                    detail = f"actual={_fmt_cell(c['actual'])}"
                    if c["mode"] == "abs":
                        detail += (f" expected={_fmt_cell(c['expected'])}"
                                   f" tol={_fmt_cell(c['tol'])}")
                    elif c["mode"] in ("le", "ge"):
                        sign = "<=" if c["mode"] == "le" else ">="
                        detail += f" {sign} {_fmt_cell(c['expected'])}"
                    else:
                        detail += f" expected={_fmt_cell(c['expected'])}"
                    out.append(f"{word} {key}.{c['name']}: {detail}"
                               f" [{c['source']}]")
            else:
                _text_lines(v, key, out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _text_lines(v, f"{prefix}.{i}" if prefix else str(i), out)
    else:
        out.append(f"{prefix} = {_fmt_cell(obj)}")


def _render_text(report: dict) -> str:
    out: list = []
    _text_lines(report, "", out)
    return "\n".join(out) + "\n"


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
    if args.paths < 4 or args.steps < 1:
        # antithetic estimates need two complete pairs of paths
        raise _UsageError("--paths must be at least 4 and --steps positive")
    sol, cu, gv, warnings, source = _solve_bundle(model, args.kind)
    sim = SimConfig(n_paths=args.paths, n_steps=args.steps, seed=args.seed)
    # Wealth is normalized to bliss level 1 (x=0, gamma=1, scale=1) so the
    # estimates line up with the dimensionless analytic ratios.
    study = run_wealth_study(model, sim, args.kind, x=0.0, gamma=1.0,
                             scale=1.0, solution=sol)
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
                    "steps": args.steps, "seed": args.seed,
                    "antithetic": anti},
        "model": _model_summary(model),
        "values": _values_block(gv, source),
        "wealth_normalization": {"x": _v(0.0), "gamma": _v(1.0),
                                 "bliss": _v(study.bliss)},
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
    atom = model.atoms[0]
    unit_values = [
        drift_of_variation(utility_variation(e, "mmv", dim=2), atom.chars)
        for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    ]
    opt_val = sol.atom_optima[0].value
    figures = {
        "density_variance": _v(diag.variance),
        "best_utility_doubled": _v(2.0 * gv.u0),
        "dual_value": _v(gv.v0),
        "unit_strategy_values": [_v(v) for v in unit_values],
        "p_zero": _v(diag.p_zero),
        "equivalent": diag.equivalent,
    }
    checks = [
        _check("density_variance", diag.variance, 2.0 / 3.0, 1e-12),
        _check("best_utility_doubled", 2.0 * gv.u0, 0.4, 1e-12),
        _check("dual_value", gv.v0, 1.0 / 3.0, 1e-12),
        _check("unit_strategy_first", unit_values[0], opt_val, 1e-10),
        _check("unit_strategy_second", unit_values[1], opt_val, 1e-10),
        _check("p_zero", diag.p_zero, 0.2, 1e-12),
        _check("equivalent", diag.equivalent, False, mode="eq"),
    ]
    return model, figures, checks, warnings


def _reproduce_2(atoms_max=None):
    model = example_model(2)
    seg = model.segments[0]
    jumps = seg.chars.jumps
    sol_mv, cu_mv, gv_mv, warn_v, _ = _solve_bundle(model, "mv")
    sol_mmv, cu_mmv, gv_mmv, warn_m, _ = _solve_bundle(model, "mmv")
    lam_mv = sol_mv.segment_optima[0].lambda_hat
    lam_mmv = sol_mmv.segment_optima[0].lambda_hat
    theta_mmv = seg.length * jumps.mass_scaled_ge(lam_mmv, 1.0, strict=False)
    theta_mv = seg.length * jumps.mass_scaled_ge(lam_mv, 1.0, strict=True)
    p_zero = zero_density_probability(model, sol_mmv)
    sm1 = mellin_sign_moments(model, sol_mv, 1)
    sm2 = mellin_sign_moments(model, sol_mv, 2)
    capped_mean = 1.0 - sm1.phi_plus
    capped_second = 1.0 - 2.0 * sm1.phi_plus + sm2.phi_plus
    excess_mean = sm1.phi_minus
    excess_second = 2.0 * sm1.phi_minus + sm2.phi_minus
    terminal_mean = gv_mv.mhr2
    capped_ratio = capped_mean ** 2 / capped_second
    figures = {
        "quadratic_direction": _v(float(lam_mv[0])),
        "quadratic_local_value_doubled": _v(2.0 * sol_mv.segment_optima[0].value),
        "quadratic_dual_doubled": _v(gv_mv.msr2),
        "monotone_direction": _v(float(lam_mmv[0])),
        "monotone_crossing_intensity": _v(theta_mmv),
        "p_zero": _v(p_zero),
        "monotone_dual_doubled": _v(gv_mmv.msr2),
        "terminal_wealth_capped_mean": _v(capped_mean),
        "terminal_wealth_capped_second_moment": _v(capped_second),
        "terminal_wealth_excess_mean": _v(excess_mean),
        "terminal_wealth_excess_second_moment": _v(excess_second),
        "terminal_wealth_mean": _v(terminal_mean),
        "capped_mean_square_ratio": _v(capped_ratio),
        "quadratic_strict_crossing_intensity": _v(theta_mv),
    }
    checks = [
        _check("quadratic_direction", float(lam_mv[0]), 4.4844, 5e-4),
        _check("quadratic_local_value_doubled",
               2.0 * sol_mv.segment_optima[0].value, 1.0091, 5e-4),
        _check("quadratic_dual_doubled", gv_mv.msr2, 1.7430, 2e-3),
        _check("monotone_direction", float(lam_mmv[0]), 4.5143, 2e-3),
        _check("monotone_crossing_intensity", theta_mmv, 0.022699, 5e-4),
        _check("p_zero", p_zero, 0.02244, 5e-4),
        _check("monotone_dual_doubled", gv_mmv.msr2, 1.7482, 2e-3),
        _check("terminal_wealth_capped_mean", capped_mean, 0.63373, 1e-3),
        _check("terminal_wealth_capped_second_moment", capped_second,
               0.63136, 1e-3),
        _check("terminal_wealth_excess_mean", excess_mean, 0.0017, 1e-3),
        _check("terminal_wealth_excess_second_moment", excess_second,
               0.0041, 1e-3),
        _check("terminal_wealth_mean", terminal_mean, 0.6354, 1e-3),
        _check("capped_mean_square_ratio", capped_ratio, 0.6361, 1e-3),
        _check("quadratic_strict_crossing_intensity", theta_mv,
               0.022057, 5e-4),
    ]
    warnings = warn_v + warn_m
    warnings.append(
        "the reference figure 0.022057 for the strict crossing intensity "
        "is reproduced at the quadratic optimum 4.4844; an alternative "
        "quoted direction 4.5130 is inconsistent with that optimum and "
        "gives a different intensity")
    return model, figures, checks, warnings


def _reproduce_3(atoms_max=None):
    model = example_model(3)
    seg = model.segments[0]
    sol_mmv, cu_mmv, gv_mmv, warn_m, _ = _solve_bundle(model, "mmv")
    sol_mv = solve_schedule(model, "mv")
    lam = sol_mmv.segment_optima[0].lambda_hat
    lam0 = float(lam[0])
    theta = seg.length * seg.chars.jumps.mass_scaled_ge(lam, 1.0, strict=False)
    p_zero = zero_density_probability(model, sol_mmv)
    residuals = sigma_martingale_residual(model, sol_mmv, "mmv")
    max_resid = float(np.abs(residuals).max())
    lam_mv0 = float(sol_mv.segment_optima[0].lambda_hat[0])
    verdict = compare_mv_mmv(model, mv_solution=sol_mv,
                             mmv_solution=sol_mmv).verdict
    figures = {
        "monotone_direction": _v(lam0),
        "crossing_intensity": _v(theta),
        "p_zero": _v(p_zero),
        "max_martingale_residual": _v(max_resid),
        "quadratic_direction": _v(lam_mv0),
        "coincidence_verdict": verdict,
    }
    checks = [
        _check("monotone_direction", lam0, 1.108, 5e-3),
        _check("crossing_intensity_identity", theta, lam0 / (1.0 + lam0), 1e-6),
        _check("p_zero", p_zero, 0.4088, 1e-3),
        _check("max_martingale_residual", max_resid, 0.0, 1e-3),
        _check("quadratic_direction_zero", lam_mv0, 0.0, 0.0),
        _check("coincidence_verdict", verdict, "not_applicable", mode="eq"),
    ]
    return model, figures, checks, warn_m


def _reproduce_4(atoms_max=None):
    model = example_model(4)
    chars = model.segments[0].chars
    sol, cu, gv, warnings, _ = _solve_bundle(model, "mmv")
    diag = density_diagnostics(model, solution=sol)
    lam0 = float(sol.segment_optima[0].lambda_hat[0])
    resid = float(sigma_martingale_residual(model, sol, "mmv")[0, 0])
    drift_id = float(foc_residual([0.0], chars, "mv")[0])
    figures = {
        "monotone_direction": _v(lam0),
        "equivalent": diag.equivalent,
        "martingale_residual": _v(resid),
        "identity_drift": _v(drift_id),
        "boundedness": sol.segment_optima[0].boundedness,
    }
    checks = [
        _check("monotone_direction_zero", lam0, 0.0, 0.0),
        _check("equivalent", diag.equivalent, True, mode="eq"),
        _check("martingale_residual", resid, -1.0, 1e-8),
        _check("identity_drift", drift_id, -1.0, 1e-8),
    ]
    return model, figures, checks, warnings


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

    worst_dir = worst(mv.lambda_hat[:, 0], 1.5)
    worst_rate = worst(mv.value / model.atoms.weights, 1.125)
    worst_mhr = worst(2.0 * mmv.value, 0.5)
    lam1_mv, hr1_mv = float(mv.lambda_hat[0, 0]), 2.0 * float(mv.value[0])
    lam1_mmv, hr1_mmv = float(mmv.lambda_hat[0, 0]), 2.0 * float(mmv.value[0])
    partial_mv, tail_mv = cu_mv.increment_sum, cu_mv.tail_sum
    partial_mmv = cu_mmv.increment_sum
    figures = {
        "atoms_max": n_max,
        "worst_direction_margin": _v(worst_dir),
        "worst_rate_margin": _v(worst_rate),
        "worst_hansen_margin": _v(worst_mhr),
        "first_bet_quadratic_direction": _v(lam1_mv),
        "first_bet_squared_hansen": _v(hr1_mv),
        "first_bet_monotone_direction": _v(lam1_mmv),
        "first_bet_monotone_squared_hansen": _v(hr1_mmv),
        "quadratic_series_partial": _v(partial_mv),
        "quadratic_series_tail": _v(tail_mv),
        "quadratic_series_finite": cu_mv.finite,
        "monotone_series_partial": _v(partial_mmv, "heuristic"),
        "monotone_series_finite": cu_mmv.finite,
    }
    checks = [
        _check("worst_direction_margin", worst_dir, 5.0, mode="le"),
        _check("worst_rate_margin", worst_rate, 5.0, mode="le"),
        _check("worst_hansen_margin", worst_mhr, 5.0, mode="le"),
        _check("first_bet_quadratic_direction", lam1_mv, 88.0 / 73.0, 1e-12),
        _check("first_bet_squared_hansen", hr1_mv, 121.0 / 292.0, 1e-12),
        _check("first_bet_monotone_direction", lam1_mmv, 8.0 / 3.0, 1e-12),
        _check("first_bet_monotone_squared_hansen", hr1_mmv, 0.5, 1e-12),
        _check("quadratic_series_finite", cu_mv.finite, True, mode="eq"),
        _check("quadratic_series_tail_small", tail_mv,
               0.01 * (1.0 + abs(partial_mv)), mode="le"),
        _check("monotone_series_finite", cu_mmv.finite, False, mode="eq",
               source="heuristic"),
        _check("monotone_series_partial_exceeds", partial_mmv, 100.0,
               mode="ge", source="heuristic"),
    ]
    if n_max == DEFAULT_ATOMS_MAX[5]:
        checks.append(_check("quadratic_series_partial", partial_mv,
                             1.188224, 1e-3))
    return model, figures, checks, warn_v + warn_m


def _reproduce_6(atoms_max=None):
    n_max = DEFAULT_ATOMS_MAX[6] if atoms_max is None else atoms_max
    model = example_model(6, atoms_max=n_max)
    sol_mv, cu_mv, gv_mv, warn_v, src_v = _solve_bundle(model, "mv")
    sol_mmv, cu_mmv, gv_mmv, warn_m, src_m = _solve_bundle(model, "mmv")
    jumps = model.atoms
    n, _, cube = _bet_indices(len(jumps) + 1)
    hr2 = 2.0 * sol_mv.atom_optima.value
    lam1 = float(sol_mv.atom_optima.lambda_hat[0, 0])
    worst_hr = float(np.max(np.abs(hr2 - 1.0 / (n + 1.0)), initial=0.0))
    # every bet has two outcomes; each mean is its law's own dot product
    mean = np.vecdot(jumps.masses.reshape(-1, 2), jumps.points[:, 0].reshape(-1, 2))
    worst_mean = float(np.max(np.abs(mean + n / (cube.astype(float) + 1.0)), initial=0.0))
    try:
        mv_signed_measure(model, solution=sol_mv)
        no_measure = False
    except InfiniteValue as exc:
        no_measure = True
        warn_v.append(str(exc))
    figures = {
        "atoms_max": n_max,
        "worst_hansen_deviation": _v(worst_hr),
        "worst_mean_deviation": _v(worst_mean),
        "first_bet_quadratic_direction": _v(lam1),
        "quadratic_finite": gv_mv.finite,
        "monotone_finite": gv_mmv.finite,
        "separating_measure_exists": not no_measure,
    }
    checks = [
        _check("worst_hansen_deviation", worst_hr, 0.0, 1e-12),
        _check("worst_mean_deviation", worst_mean, 0.0, 1e-12),
        _check("quadratic_flagged_infinite", gv_mv.finite, False, mode="eq",
               source="heuristic"),
        _check("monotone_flagged_infinite", gv_mmv.finite, False, mode="eq",
               source="heuristic"),
        _check("no_separating_measure", no_measure, True, mode="eq"),
        _check("first_bet_quadratic_direction", lam1, -1.5, 1e-12),
    ]
    return model, figures, checks, warn_v + warn_m


_REPRODUCERS = {1: _reproduce_1, 2: _reproduce_2, 3: _reproduce_3,
                4: _reproduce_4, 5: _reproduce_5, 6: _reproduce_6}


def _run_reproduce(example_id: int, atoms_max) -> dict:
    t0 = time.perf_counter()
    model, figures, checks, warnings = _REPRODUCERS[example_id](atoms_max=atoms_max)
    elapsed = time.perf_counter() - t0
    n_pass = sum(1 for c in checks if c["pass"])
    print(f"example {example_id}: {n_pass}/{len(checks)} checks passed "
          f"({elapsed:.2f}s)", file=sys.stderr)
    return {
        "example": example_id,
        "model": _model_summary(model),
        "figures": figures,
        "checks": checks,
        "warnings": warnings,
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


def _selftest_checks() -> list[dict]:
    checks = []

    model1 = example_model(1)
    sol1, cu1, gv1, _, _ = _solve_bundle(model1, "mmv")
    checks.append(_check("two_asset_bet_utility_doubled", 2.0 * gv1.u0,
                         0.4, 1e-12))
    checks.append(_check("two_asset_bet_dual", gv1.v0, 1.0 / 3.0, 1e-12))

    model3 = example_model(3)
    sol3 = solve_schedule(model3, "mmv")
    checks.append(_check("one_sided_tails_direction",
                         float(sol3.segment_optima[0].lambda_hat[0]),
                         1.1080932585715102, 1e-8))

    model4 = example_model(4)
    sol4 = solve_schedule(model4, "mmv")
    resid4 = float(sigma_martingale_residual(model4, sol4, "mmv")[0, 0])
    checks.append(_check("heavy_tail_residual", resid4, -1.0, 1e-8))

    # Pathwise identity: shortfall below bliss equals the capped product.
    model2 = example_model(2)
    study = run_wealth_study(model2, SimConfig(n_paths=64, n_steps=16, seed=7),
                             "mmv")
    shortfall = np.maximum(1.0 - study.terminal_wealth, 0.0)
    gap = float(np.abs(shortfall - study.capped_exponential).max())
    checks.append(_check("pathwise_identity_gap", gap, 0.0, 1e-12))
    return checks


def _cmd_selftest(args) -> int:
    checks = _selftest_checks()
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


def build_parser() -> argparse.ArgumentParser:
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
    sp.add_argument("--steps", type=int, default=2_000)
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
