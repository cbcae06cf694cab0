"""Timed acceptance checks, one summary line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines; each
test prints exactly one "criterion N: PASS|FAIL" line and then asserts.
Criteria 1, 2, 4 and 5 run `reproduce` and require every check to
pass; its expected figures and tolerances, which criteria 6 and 7 also
read, live in one table, src/mmvlab/examples_data/expected.json.
"""
import contextlib
import io
import json
import math
import time

import numpy as np

from mmvlab import (InfiniteValue, SimConfig, cumulative_local_utility,
                    estimate_stats, example_model, global_values,
                    mv_signed_measure, run_wealth_study, solve_schedule,
                    zero_density_probability)
from mmvlab.cli import run
from mmvlab.examples import expected_figures

import properties


class Checker:
    """Collects labeled failures so one line can summarize a criterion."""

    def __init__(self, n: int):
        self.n = n
        self.fails: list[str] = []

    def need(self, cond: bool, label: str) -> None:
        if not cond:
            self.fails.append(label)

    def all_checks(self, code: int, report: dict) -> int:
        """Every check of a reproduce report passes; returns how many ran."""
        self.need(code == 0, f"exit code {code}")
        for chk in report["checks"]:
            self.need(chk["pass"], f"{chk['name']}={chk['actual']!r} {chk['mode']} "
                                   f"{chk['expected']!r} tol {chk['tol']}")
        return len(report["checks"])

    def finish(self, detail: str) -> None:
        ok = not self.fails
        text = detail if ok else "; ".join(self.fails)
        print(f"criterion {self.n}: {'PASS' if ok else 'FAIL'} - {text}")
        assert ok, f"criterion {self.n}: {text}"


def _reproduce(example: int) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run(["reproduce", "--example", str(example)])
    return code, json.loads(buf.getvalue())


def _table(example) -> dict:
    """The rows of the expected-figures table for `example`, by name."""
    return {r["name"]: r for r in expected_figures()[str(example)]["checks"]}


def test_criterion_1():
    c = Checker(1)
    _reproduce(1)  # first call pays one-time setup
    t0 = time.perf_counter()
    code, report = _reproduce(1)
    elapsed = time.perf_counter() - t0

    n = c.all_checks(code, report)
    c.need(elapsed < 0.1, f"runtime {elapsed:.3f}s")
    c.finish(f"{n} checks of example 1 pass (variance, doubled utility, "
             f"v0, unit strategies), {elapsed * 1e3:.0f}ms")


def test_criterion_2():
    c = Checker(2)
    t0 = time.perf_counter()
    code, report = _reproduce(2)
    elapsed = time.perf_counter() - t0

    n = c.all_checks(code, report)
    # the intensity discrepancy must be surfaced to the user, not only
    # stored in a notes file
    quoted = repr(_table(2)["quadratic_strict_crossing_intensity"]["expected"])
    c.need(any(quoted in w for w in report["warnings"]),
           "discrepancy note missing from report warnings")
    c.need(elapsed < 5.0, f"runtime {elapsed:.2f}s")
    c.finish(f"all {n} closed forms within tolerance, note recorded, "
             f"{elapsed:.2f}s")


def test_criterion_3():
    c = Checker(3)
    t0 = time.perf_counter()
    model = example_model(2)
    sol_mv = solve_schedule(model, "mv")
    sol_mmv = solve_schedule(model, "mmv")
    gv_mv = global_values(cumulative_local_utility(model, "mv",
                                                   solution=sol_mv))
    gv_mmv = global_values(cumulative_local_utility(model, "mmv",
                                                    solution=sol_mmv))
    sim = SimConfig(n_paths=100_000, n_steps=2000, seed=20260818,
                    antithetic=True)
    study_mv = run_wealth_study(model, sim, "mv", solution=sol_mv)
    study_mmv = run_wealth_study(model, sim, "mmv", solution=sol_mmv)
    z = study_mmv.capped_exponential / (1.0 - gv_mmv.mhr2)
    elapsed = time.perf_counter() - t0

    cases = (
        ("E[W]", study_mv.terminal_wealth, "mean", gv_mv.mhr2),
        ("E[W^2]", study_mv.terminal_wealth, "second_moment", gv_mv.mhr2),
        ("P[W>=1]", study_mmv.terminal_wealth, "prob_ge_one",
         zero_density_probability(model, sol_mmv)),
        ("E[Z]", z, "mean", 1.0),
        ("E[Z^2]", z, "second_moment", gv_mmv.scale),
    )
    sigmas = []
    for label, values, functional, want in cases:
        st = estimate_stats(values, functional, antithetic=True)
        pull = abs(st.estimate - want) / st.std_error
        sigmas.append(f"{label} {pull:.2f}se")
        c.need(pull <= 3.0,
               f"{label}: {st.estimate!r} vs {want!r} is {pull:.2f} se")
    c.need(elapsed < 120.0, f"runtime {elapsed:.1f}s")
    c.finish(f"{', '.join(sigmas)}, {elapsed:.1f}s")


def test_criterion_4():
    c = Checker(4)
    n = c.all_checks(*_reproduce(3))
    c.finish(f"{n} checks of example 3 pass (direction, intensity identity, "
             f"p_zero, residual, quadratic stays out, verdict)")


def test_criterion_5():
    c = Checker(5)
    n = c.all_checks(*_reproduce(4))
    c.finish(f"{n} checks of example 4 pass (zero position, equivalent "
             f"density, both drift routes at -1)")


def test_criterion_6():
    c = Checker(6)
    rows = _table(5)
    margin = {name: rows[f"worst_{name}_margin"]["expected"]
              for name in ("direction", "rate", "hansen")}
    floor_mmv = rows["monotone_series_partial_exceeds"]["expected"]
    model = example_model(5, atoms_max=10_000)
    sol_mv = solve_schedule(model, "mv")
    sol_mmv = solve_schedule(model, "mmv")
    worst_lam = worst_val = worst_mhr = 0.0
    for i, atom in enumerate(model.atoms):
        n = i + 2
        if n < 10:
            continue
        opt = sol_mv.atom_optima[i]
        worst_lam = max(worst_lam,
                        n * abs(float(opt.lambda_hat[0]) - 1.5))
        worst_val = max(worst_val,
                        n * abs(opt.value / atom.activity_weight - 9.0 / 8.0))
        worst_mhr = max(worst_mhr,
                        n * abs(2.0 * sol_mmv.atom_optima[i].value - 0.5))
    cu_mv = cumulative_local_utility(model, "mv", solution=sol_mv)
    cu_mmv = cumulative_local_utility(model, "mmv", solution=sol_mmv)
    incs = cu_mv.atom_increments
    partial = math.fsum(incs)
    tail = math.fsum(incs[incs.size // 2:])
    partial_mmv = math.fsum(cu_mmv.atom_increments)

    c.need(worst_lam <= margin["direction"], f"n*|lam-3/2| reaches {worst_lam!r}")
    c.need(worst_val <= margin["rate"], f"n*|value/weight-9/8| reaches {worst_val!r}")
    c.need(worst_mhr <= margin["hansen"], f"n*|mhr2-1/2| reaches {worst_mhr!r}")
    c.need(cu_mv.finite, "quadratic series flagged divergent")
    c.need(tail <= 0.01 * (1.0 + abs(partial)),
           f"quadratic tail {tail!r} fails the Cauchy check")
    c.need(not cu_mmv.finite, "monotone series not flagged divergent")
    c.need(partial_mmv > floor_mmv,
           f"monotone partial sum {partial_mmv!r} too small")
    c.finish(f"margins {worst_lam:.2f}/{worst_val:.2f}/{worst_mhr:.2f} within bounds, "
             f"quadratic sum {partial:.6f} converges, "
             f"monotone partial {partial_mmv:.0f} diverges")


def test_criterion_7():
    c = Checker(7)
    rows = _table(6)
    model = example_model(6, atoms_max=1_000)
    sol_mv = solve_schedule(model, "mv")
    worst_hr = worst_mean = 0.0
    for i, atom in enumerate(model.atoms):
        n = i + 2
        hr2 = 2.0 * sol_mv.atom_optima[i].value
        mean = float(np.dot(atom.law.points[:, 0], atom.law.masses))
        worst_hr = max(worst_hr, abs(hr2 - 1.0 / (n + 1)))
        worst_mean = max(worst_mean, abs(mean + n / (n ** 3 + 1.0)))
    gv_mv = global_values(cumulative_local_utility(model, "mv",
                                                   solution=sol_mv))
    gv_mmv = global_values(cumulative_local_utility(model, "mmv"))
    try:
        mv_signed_measure(model)
        separating = True
    except InfiniteValue:
        separating = False

    c.need(worst_hr <= rows["worst_hansen_deviation"]["tol"],
           f"per-bet ratio deviates by {worst_hr!r}")
    c.need(worst_mean <= rows["worst_mean_deviation"]["tol"],
           f"per-bet mean deviates by {worst_mean!r}")
    c.need(not gv_mv.finite, "quadratic value not flagged infinite")
    c.need(not gv_mmv.finite, "monotone value not flagged infinite")
    c.need(not separating, "a separating measure was reported")
    c.finish("per-bet ratios and means exact, both kinds infinite, "
             "no separating measure")


def test_criterion_8():
    c = Checker(8)
    t0 = time.perf_counter()
    model = example_model(2)
    sol = solve_schedule(model, "mmv")
    lin = properties.check_drift_linearity()
    trunc = properties.check_truncation_invariance()
    conc = properties.check_concavity()
    grid = properties.check_optimizer_vs_grid()
    inv = properties.check_exponential_inversion()
    round_trip = properties.check_sr_hr_roundtrip()
    path = properties.check_pathwise_identity(model, sol)
    prefix = properties.check_prefix_determinism(model, sol)
    elapsed = time.perf_counter() - t0

    c.need(lin <= 1e-10, f"drift linearity {lin!r}")
    c.need(trunc <= 1e-10, f"truncation invariance {trunc!r}")
    c.need(conc >= -1e-9, f"concavity slack {conc!r}")
    c.need(grid <= 1e-8, f"optimizer vs grid {grid!r}")
    c.need(inv <= 1e-12, f"exponential inversion {inv!r}")
    c.need(round_trip <= 1e-14, f"ratio round trip {round_trip!r}")
    c.need(path <= 1e-12, f"pathwise identity {path!r}")
    c.need(prefix, "a study is not a prefix of a longer study")
    c.need(elapsed < 60.0, f"runtime {elapsed:.1f}s")
    c.finish(f"linearity {lin:.1e}, truncation {trunc:.1e}, "
             f"concavity {conc:.1e}, grid {grid:.1e}, inversion {inv:.1e}, "
             f"roundtrip {round_trip:.1e}, pathwise {path:.1e}, "
             f"prefix bit-exact, {elapsed:.1f}s")
