"""Timed acceptance checks, one summary line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines; each
test prints exactly one "criterion N: PASS|FAIL" line and then asserts.
Target figures live next to their tolerances below.
"""
import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

from mmvlab import (InfiniteValue, SimConfig, compare_mv_mmv,
                    cumulative_local_utility, density_diagnostics,
                    estimate_stats, example_model, foc_residual,
                    global_values, local_utility, mellin_sign_moments,
                    mv_signed_measure, run_wealth_study,
                    sigma_martingale_residual, solve_schedule,
                    zero_density_probability)
from mmvlab.cli import run

import properties


class Checker:
    """Collects labeled failures so one line can summarize a criterion."""

    def __init__(self, n: int):
        self.n = n
        self.fails: list[str] = []

    def need(self, cond: bool, label: str) -> None:
        if not cond:
            self.fails.append(label)

    def close(self, got: float, want: float, tol: float, label: str) -> None:
        self.need(abs(got - want) <= tol, f"{label}={got!r} want {want}+-{tol}")

    def finish(self, detail: str) -> None:
        ok = not self.fails
        text = detail if ok else "; ".join(self.fails)
        print(f"criterion {self.n}: {'PASS' if ok else 'FAIL'} - {text}")
        assert ok, f"criterion {self.n}: {text}"


def test_criterion_1():
    c = Checker(1)

    def compute():
        model = example_model(1)
        sol = solve_schedule(model, "mmv")
        gv = global_values(cumulative_local_utility(model, "mmv",
                                                    solution=sol))
        diag = density_diagnostics(model, solution=sol)
        chars = model.atoms[0].chars
        best = sol.atom_optima[0].value
        return (gv, diag,
                best - local_utility([1.0, 0.0], chars, "mmv"),
                best - local_utility([0.0, 1.0], chars, "mmv"))

    compute()  # first call pays one-time setup
    t0 = time.perf_counter()
    gv, diag, gap_e1, gap_e2 = compute()
    elapsed = time.perf_counter() - t0

    c.close(diag.variance, 2.0 / 3.0, 1e-12, "density variance")
    c.close(gv.mhr2, 0.4, 1e-12, "max doubled utility")
    c.close(gv.v0, 1.0 / 3.0, 1e-12, "v0")
    c.need(abs(gap_e1) <= 1e-10, f"unit strategy (1,0) gap {gap_e1!r}")
    c.need(abs(gap_e2) <= 1e-10, f"unit strategy (0,1) gap {gap_e2!r}")
    c.need(elapsed < 0.1, f"runtime {elapsed:.3f}s")
    c.finish(f"variance 2/3, doubled utility 0.4, v0 1/3, "
             f"unit gaps {abs(gap_e1):.1e}/{abs(gap_e2):.1e}, "
             f"{elapsed * 1e3:.0f}ms")


def test_criterion_2():
    c = Checker(2)
    t0 = time.perf_counter()
    model = example_model(2)
    sol_mv = solve_schedule(model, "mv")
    sol_mmv = solve_schedule(model, "mmv")
    lam_mv = float(sol_mv.segment_optima[0].lambda_hat[0])
    lam_mmv = float(sol_mmv.segment_optima[0].lambda_hat[0])
    gv_mv = global_values(cumulative_local_utility(model, "mv",
                                                   solution=sol_mv))
    gv_mmv = global_values(cumulative_local_utility(model, "mmv",
                                                    solution=sol_mmv))
    seg = model.segments[0]
    theta_mmv = seg.length * seg.chars.jumps.mass_scaled_ge(lam_mmv, 1.0)
    theta_mv = seg.length * seg.chars.jumps.mass_scaled_ge(lam_mv, 1.0,
                                                           strict=True)
    p_zero = zero_density_probability(model, sol_mmv)
    sm1 = mellin_sign_moments(model, sol_mv, 1)
    sm2 = mellin_sign_moments(model, sol_mv, 2)
    capped_mean = 1.0 - sm1.phi_plus
    capped_second = 1.0 - 2.0 * sm1.phi_plus + sm2.phi_plus
    mellin = (capped_mean, capped_second, sm1.phi_minus,
              2.0 * sm1.phi_minus + sm2.phi_minus, gv_mv.mhr2,
              capped_mean ** 2 / capped_second)
    elapsed = time.perf_counter() - t0

    c.close(lam_mv, 4.4844, 5e-4, "quadratic direction")
    c.close(2.0 * sol_mv.segment_optima[0].value, 1.0091, 5e-4,
            "doubled quadratic rate")
    c.close(gv_mv.msr2, 1.7430, 2e-3, "quadratic dual value")
    c.close(lam_mmv, 4.5143, 2e-3, "monotone direction")
    c.close(theta_mmv, 0.022699, 5e-4, "monotone crossing intensity")
    c.close(p_zero, 0.02244, 5e-4, "zero density probability")
    c.close(gv_mmv.msr2, 1.7482, 2e-3, "monotone dual value")
    for got, want in zip(mellin, (0.63373, 0.63136, 0.0017, 0.0041,
                                  0.6354, 0.6361)):
        c.close(got, want, 1e-3, f"mellin figure {want}")
    c.close(theta_mv, 0.022057, 5e-4, "strict crossing intensity")
    # the intensity discrepancy must be surfaced to the user, not only
    # stored in a notes file
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run(["reproduce", "--example", "2"])
    warnings = json.loads(buf.getvalue()).get("warnings", [])
    c.need(any("0.022057" in w for w in warnings),
           "discrepancy note missing from report warnings")
    c.need(elapsed < 5.0, f"runtime {elapsed:.2f}s")
    c.finish(f"all closed forms within tolerance, note recorded, "
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
    model = example_model(3)
    sol = solve_schedule(model, "mmv")
    lam = float(sol.segment_optima[0].lambda_hat[0])
    seg = model.segments[0]
    theta = seg.length * seg.chars.jumps.mass_scaled_ge(lam, 1.0)
    p_zero = zero_density_probability(model, sol)
    residual = sigma_martingale_residual(model, sol, "mmv")
    worst = max(abs(v) for row in residual for v in np.atleast_1d(row))
    sol_mv = solve_schedule(model, "mv")
    lam_mv = float(sol_mv.segment_optima[0].lambda_hat[0])
    verdict = compare_mv_mmv(model).verdict

    c.close(lam, 1.108, 5e-3, "monotone direction")
    c.close(theta, lam / (1.0 + lam), 1e-6, "crossing intensity identity")
    c.close(p_zero, 0.4088, 1e-3, "zero density probability")
    c.need(worst <= 1e-3, f"martingale residual {worst!r}")
    c.need(lam_mv == 0.0, f"quadratic direction {lam_mv!r} not exactly 0")
    c.need(verdict == "not_applicable", f"verdict {verdict!r}")
    c.finish(f"direction 1.108, intensity identity, p_zero 0.4088, "
             f"residual {worst:.1e}, quadratic stays out, {verdict}")


def test_criterion_5():
    c = Checker(5)
    model = example_model(4)
    sol = solve_schedule(model, "mmv")
    lam = float(sol.segment_optima[0].lambda_hat[0])
    diag = density_diagnostics(model, solution=sol)
    residual = diag.sigma_mart_residual[0][0]
    # the drift of the plain yield is the first-order residual at a
    # zero position, an independent route from the density diagnostics
    drift_id = float(foc_residual([0.0], model.segments[0].chars, "mv")[0])

    c.need(lam == 0.0, f"direction {lam!r} not exactly 0")
    c.need(diag.equivalent, "density not flagged equivalent")
    c.close(residual, -1.0, 1e-8, "martingale residual")
    c.close(drift_id, -1.0, 1e-8, "drift of identity")
    c.finish("zero position, equivalent density, both drift routes at -1")


def test_criterion_6():
    c = Checker(6)
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

    c.need(worst_lam <= 5.0, f"n*|lam-3/2| reaches {worst_lam!r}")
    c.need(worst_val <= 5.0, f"n*|value/weight-9/8| reaches {worst_val!r}")
    c.need(worst_mhr <= 5.0, f"n*|mhr2-1/2| reaches {worst_mhr!r}")
    c.need(cu_mv.finite, "quadratic series flagged divergent")
    c.need(tail <= 0.01 * (1.0 + abs(partial)),
           f"quadratic tail {tail!r} fails the Cauchy check")
    c.need(not cu_mmv.finite, "monotone series not flagged divergent")
    c.need(partial_mmv > 100.0,
           f"monotone partial sum {partial_mmv!r} too small")
    c.finish(f"margins {worst_lam:.2f}/{worst_val:.2f}/{worst_mhr:.2f} <= 5, "
             f"quadratic sum {partial:.6f} converges, "
             f"monotone partial {partial_mmv:.0f} diverges")


def test_criterion_7():
    c = Checker(7)
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

    c.need(worst_hr <= 1e-12, f"per-bet ratio deviates by {worst_hr!r}")
    c.need(worst_mean <= 1e-12, f"per-bet mean deviates by {worst_mean!r}")
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
