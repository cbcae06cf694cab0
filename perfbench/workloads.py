"""The benchmark's workloads: seeded inputs, timed operations, checks.

Every workload drives mmvlab only through its public entry points.
Inputs are generated from the seed when a workload is built; each
operation is then a call sequence a user of ``reproduce``, ``diagnose``,
``solve`` or ``simulate`` waits for.  An operation's check runs after
its timing stops and returns the list of problems it found, so an
operation fails when it raises, exits non-zero or fails its check.

Sizes: ``full`` is the benchmark; ``tiny`` runs the same code paths on
small inputs, for the warm-up pass and the smoke test.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

import mmvlab
import mmvlab.cli

KINDS = ("mv", "mmv")
ORACLE_TOL = 1e-8         # optimizer value vs dense grid scan, as in tests/
FIGURE_TOL = 1e-12        # closed-form figures of example 1
IDENTITY_RTOL = 1e-10     # 1 + msr2 = 1/(1 - mhr2)
NONNEG_TOL = 1e-12        # "non-negative" allows this much rounding below 0
PULL_LIMIT_SE = 5.0       # |MC estimate - analytic value| in standard errors
PULL_MIN_PATHS = 10_000   # below this the standard error itself is too noisy to gate on


@dataclass
class Op:
    """One timed operation: run() is timed, check(result) is not."""

    name: str
    run: object
    check: object
    items: int            # work items (time points or path-steps) it covers


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the command line in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = mmvlab.cli.run(argv + ["--format", "json"])
    return code, out.getvalue()


def _reproduce_check(result) -> list[str]:
    code, text = result
    if code != 0:
        report = json.loads(text) if text else {}
        failed = [c["name"] for c in report.get("checks", []) if not c["pass"]]
        return [f"exit code {code}, failed checks {failed}"]
    return []


def _finite_nonneg(label: str, value, problems: list[str]) -> None:
    v = float(value)
    if not (math.isfinite(v) and v >= -NONNEG_TOL):
        problems.append(f"{label}={v!r} is not finite and non-negative")


def _check_values(label: str, gv, problems: list[str]) -> None:
    """Finite values obey the duality identity; infinite ones saturate."""
    if not gv.finite:
        if not (gv.u0 == 0.5 and gv.mhr2 == 1.0 and gv.msr2 == math.inf):
            problems.append(f"{label}: infinite values reported as {gv}")
        return
    for field in ("u0", "v0", "msr2", "mhr2", "scale"):
        _finite_nonneg(f"{label}.{field}", getattr(gv, field), problems)
    lhs, rhs = 1.0 + gv.msr2, 1.0 / (1.0 - gv.mhr2)
    if abs(lhs - rhs) > IDENTITY_RTOL * abs(lhs):
        problems.append(f"{label}: 1 + msr2 = {lhs!r} but 1/(1 - mhr2) = {rhs!r}")


def _check_optima(label: str, sol, problems: list[str]) -> None:
    for i, opt in enumerate((*sol.segment_optima, *sol.atom_optima)):
        if opt.boundedness == "unbounded_flagged" or not np.all(np.isfinite(opt.lambda_hat)):
            problems.append(f"{label}[{i}]: {opt.boundedness} at {opt.lambda_hat}")
        _finite_nonneg(f"{label}[{i}].value", opt.value, problems)


class Workload:
    name = ""
    work_unit = ""
    sizes: dict = {}

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = size
        self.p = self.sizes[size]
        self.rng = np.random.default_rng(seed)
        self.expected: dict = {}
        self.pulls: list[float] = []

    def build_models(self) -> list:
        """Every model the operations build, built once (part of set-up)."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# atom_laws


def random_atom_law(rng) -> tuple[np.ndarray, np.ndarray]:
    """3-6 outcomes: one loss, one gain, some past the unit truncation."""
    n = int(rng.integers(3, 7))
    signs = np.concatenate([[-1.0, 1.0], rng.choice([-1.0, 1.0], size=n - 2)])
    mags = np.where(signs < 0, rng.uniform(0.05, 1.6, n), rng.uniform(0.05, 2.5, n))
    masses = rng.uniform(0.05, 0.4, n)
    masses *= rng.uniform(0.3, 1.0) / masses.sum()
    return signs * mags, masses


def oracle_value(points, masses, kind: str, b: float = 0.0, c: float = 0.0) -> float:
    """Maximum of the explicit local objective by a dense grid scan.

    value(lam) = b lam - c lam^2/2 + sum m (g(lam x) - lam h(x)), with
    b the truncated drift, h the unit truncation and g the utility
    (capped at 1 for mmv).  For a scheduled jump b = sum m h(x), c = 0.
    """
    x = np.asarray(points, dtype=float)
    m = np.asarray(masses, dtype=float)
    h = np.where(np.abs(x) <= 1.0, x, 0.0)

    def val(lams):
        u = np.outer(lams, x)
        u = np.minimum(u, 1.0) if kind == "mmv" else u
        return b * lams - 0.5 * c * lams * lams + (u - 0.5 * u * u) @ m - np.outer(lams, h) @ m

    coarse = np.linspace(-60.0, 60.0, 24001)
    k = int(np.argmax(val(coarse)))
    if not 0 < k < coarse.size - 1:
        raise ValueError("grid scan clipped the optimum")
    return float(np.max(val(np.linspace(coarse[k - 1], coarse[k + 1], 20001))))


class AtomLaws(Workload):
    """Finite-atom laws: optimize searches and JumpAtom.chars, no quadrature."""

    name = "atom_laws"
    work_unit = "time_points"
    sizes = {"full": {"ex5": 2_000, "ex6": 1_000, "laws": 1000, "oracle": 40},
             "tiny": {"ex5": 300, "ex6": 100, "laws": 20, "oracle": 5}}

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        self.expected = {"ex1.variance": 2.0 / 3.0, "ex1.dual_value": 1.0 / 3.0}
        n = self.p["laws"]
        self.laws = [random_atom_law(self.rng) for _ in range(n)]
        self.seg_b = float(self.rng.uniform(0.05, 0.2))
        self.seg_c = float(self.rng.uniform(0.02, 0.08))
        self.config = {
            "horizon": 1.0, "dimension": 1,
            "segments": [{"t_start": 0.0, "t_end": 1.0, "b_kind": "trunc",
                          "b": self.seg_b, "c": self.seg_c}],
            "atoms": [{"time": (i + 1) / n, "points": [[float(v)] for v in pts],
                       "masses": [float(v) for v in ms]}
                      for i, (pts, ms) in enumerate(self.laws)],
        }
        self.sample = sorted(self.rng.choice(n, size=self.p["oracle"], replace=False).tolist())
        self.ex1_path = str(resources.files("mmvlab").joinpath("examples_data/ex1.json"))
        self._oracle_values: dict = {}

    def _reproduce(self, example: int, atoms: int) -> Op:
        argv = ["reproduce", "--example", str(example)]
        if atoms != mmvlab.examples.DEFAULT_ATOMS_MAX[example]:
            argv += ["--atoms-max", str(atoms)]
        # bet indices run from 2 to atoms, plus one segment: `atoms` time points
        return Op(f"reproduce_{example}", lambda: _cli(argv), _reproduce_check, 2 * atoms)

    def _check_diagnose(self, result) -> list[str]:
        code, text = result
        if code != 0:
            return [f"diagnose exit code {code}"]
        mono = json.loads(text)["monotone"]
        problems = []
        for key, got in (("ex1.variance", mono["density"]["variance"]["value"]),
                         ("ex1.dual_value", mono["values"]["dual_value"]["value"])):
            want = self.expected[key]
            if not abs(float(got) - want) <= FIGURE_TOL:
                problems.append(f"{key}={got!r}, expected {want!r}")
        return problems

    def _solve_schedule(self):
        model = mmvlab.build_model(self.config)
        out = {}
        for kind in KINDS:
            sol = mmvlab.solve_schedule(model, kind)
            cu = mmvlab.cumulative_local_utility(model, kind, solution=sol)
            out[kind] = (sol, mmvlab.global_values(cu))
        return out

    def _check_schedule(self, result) -> list[str]:
        problems: list[str] = []
        for kind, (sol, gv) in result.items():
            _check_optima(f"{kind}.optima", sol, problems)
            _check_values(f"{kind}.values", gv, problems)
            seg = sol.segment_optima[0].value
            want = self.seg_b ** 2 / (2.0 * self.seg_c)
            if abs(seg - want) > ORACLE_TOL:
                problems.append(f"{kind} segment value {seg!r}, expected b^2/2c = {want!r}")
            for i in self.sample:
                want = self._oracle(i, kind)
                got = sol.atom_optima[i].value
                if abs(got - want) > ORACLE_TOL:
                    problems.append(f"{kind} atom {i}: value {got!r}, grid scan {want!r}")
        return problems

    def _oracle(self, i: int, kind: str) -> float:
        """Grid-scan optimum of law i, scanned once per run (the inputs are fixed)."""
        key = (i, kind)
        if key not in self._oracle_values:
            pts, ms = self.laws[i]
            self._oracle_values[key] = oracle_value(
                pts, ms, kind, b=float(ms @ np.where(np.abs(pts) <= 1.0, pts, 0.0)))
        return self._oracle_values[key]

    def build_models(self) -> list:
        return [mmvlab.example_model(5, atoms_max=self.p["ex5"]),
                mmvlab.example_model(6, atoms_max=self.p["ex6"]),
                mmvlab.example_model(1), mmvlab.build_model(self.config)]

    def ops(self) -> list[Op]:
        return [
            self._reproduce(5, self.p["ex5"]),
            self._reproduce(6, self.p["ex6"]),
            Op("diagnose_1", lambda: _cli(["diagnose", self.ex1_path]),
               self._check_diagnose, 2 * 2),
            Op("atom_schedule", self._solve_schedule, self._check_schedule,
               2 * (1 + self.p["laws"])),
        ]


# ---------------------------------------------------------------------------
# quad_diagnose


def random_jump_law(rng, family: str) -> dict:
    if family == "gaussian":
        return {"family": "gaussian", "mean": float(rng.uniform(-0.1, 0.1)),
                "variance": float(rng.uniform(0.005, 0.04)),
                "rate": float(rng.uniform(0.5, 2.0))}
    if family == "exp_tails":
        return {"family": "exp_tails", "c_minus": float(rng.uniform(0.5, 3.0)),
                "a": float(rng.uniform(6.0, 15.0)), "c_plus": float(rng.uniform(0.5, 3.0)),
                "b": float(rng.uniform(6.0, 15.0))}
    lo, hi = -float(rng.uniform(0.2, 0.6)), float(rng.uniform(0.2, 0.8))
    x = np.linspace(lo, hi, int(rng.integers(21, 61)))
    centre = rng.uniform(0.5 * lo, 0.5 * hi)
    width = rng.uniform(0.05, 0.3)
    dens = rng.uniform(0.5, 2.0) * np.exp(-0.5 * ((x - centre) / width) ** 2) / width
    return {"family": "tabulated", "x": x.tolist(), "density": dens.tolist(),
            "quadrature": "trapezoid"}


def random_schedule(rng, n_segments: int, log_terms: bool) -> dict:
    """Diffusion on every segment; jump laws cycle through three families."""
    edges = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n_segments - 1)), [1.0]])
    families = ("gaussian", "exp_tails", "tabulated")
    config = {"horizon": 1.0, "dimension": 1, "segments": [
        {"t_start": float(edges[i]), "t_end": float(edges[i + 1]),
         "b_kind": "zero" if rng.random() < 0.5 else "trunc",
         "b": float(rng.uniform(0.02, 0.3)), "c": float(rng.uniform(0.01, 0.09)),
         "jumps": random_jump_law(rng, families[i % 3])}
        for i in range(n_segments)]}
    if log_terms:
        config["yield_transform"] = "exp"
    return config


class QuadDiagnose(Workload):
    """Continuous jump laws: quad, drift, measures and duality diagnostics."""

    name = "quad_diagnose"
    work_unit = "time_points"
    # pairs of schedules, one plain and one in log terms: two pairs keep the
    # seed-to-seed change of the pass's work to a few per cent
    sizes = {"full": {"segments": 12, "pairs": 2}, "tiny": {"segments": 3, "pairs": 1}}

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        n = self.p["segments"]
        self.configs = {}
        for k in range(self.p["pairs"]):
            self.configs[f"plain_{k}"] = random_schedule(self.rng, n, False)
            self.configs[f"log_{k}"] = random_schedule(self.rng, n, True)

    def _diagnose(self, config: dict):
        model = mmvlab.build_model(config)
        sols = {k: mmvlab.solve_schedule(model, k) for k in KINDS}
        values = {k: mmvlab.global_values(mmvlab.cumulative_local_utility(
            model, k, solution=sols[k])) for k in KINDS}
        return {
            "sols": sols, "values": values,
            "density": mmvlab.density_diagnostics(model, solution=sols["mmv"]),
            "signed": mmvlab.mv_signed_measure(model),
            "compare": mmvlab.compare_mv_mmv(model),
            "mellin": [mmvlab.mellin_sign_moments(model, sols["mv"], p) for p in (0, 1, 2)],
            "no_arbitrage": mmvlab.check_instantaneous_no_arbitrage(model),
        }

    @staticmethod
    def _check_diagnose(r) -> list[str]:
        problems: list[str] = []
        for kind in KINDS:
            _check_optima(f"{kind}.optima", r["sols"][kind], problems)
            _check_values(f"{kind}.values", r["values"][kind], problems)
            if not r["values"][kind].finite:
                problems.append(f"{kind} values are not finite")
        d = r["density"]
        for label in ("second_moment", "variance", "p_zero"):
            _finite_nonneg(f"density.{label}", getattr(d, label), problems)
        if not all(math.isfinite(v) for row in d.sigma_mart_residual for v in row):
            problems.append("density: non-finite martingale residual")
        for label in ("variance", "negative_mass"):
            _finite_nonneg(f"signed.{label}", getattr(r["signed"], label), problems)
        gap = r["compare"].max_lambda_gap
        if gap is not None:
            _finite_nonneg("compare.max_lambda_gap", gap, problems)
        for sm in r["mellin"]:
            _finite_nonneg(f"mellin[{sm.p}].phi_plus", sm.phi_plus, problems)
            _finite_nonneg(f"mellin[{sm.p}].phi_minus", sm.phi_minus, problems)
        if not r["no_arbitrage"].holds:
            problems.append("no-arbitrage scan found a riskless direction")
        return problems

    def build_models(self) -> list:
        return ([mmvlab.example_model(i) for i in (2, 3, 4)]
                + [mmvlab.build_model(c) for c in self.configs.values()])

    def ops(self) -> list[Op]:
        ops = [Op(f"reproduce_{i}", lambda i=i: _cli(["reproduce", "--example", str(i)]),
                  _reproduce_check, 2) for i in (2, 3, 4)]
        n = self.p["segments"]
        ops += [Op(f"schedule_{label}", lambda c=config: self._diagnose(c),
                   self._check_diagnose, 2 * n)
                for label, config in self.configs.items()]
        return ops


# ---------------------------------------------------------------------------
# Monte Carlo


@contextlib.contextmanager
def _threads(n: int):
    old = os.environ.get("MMVLAB_THREADS")
    os.environ["MMVLAB_THREADS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("MMVLAB_THREADS", None)
        else:
            os.environ["MMVLAB_THREADS"] = old


class _Study:
    """Example 2 wealth study for one kind, with analytic targets."""

    def __init__(self, paths: int, steps: int, seed: int):
        self.sim = mmvlab.SimConfig(n_paths=paths, n_steps=steps, seed=seed)

    def run(self, kind: str, threads: int):
        model = mmvlab.example_model(2)
        sol = mmvlab.solve_schedule(model, kind)
        gv = mmvlab.global_values(mmvlab.cumulative_local_utility(model, kind, solution=sol))
        with _threads(threads):
            study = mmvlab.run_wealth_study(model, self.sim, kind, solution=sol)
        w = study.terminal_wealth
        est = mmvlab.estimate_stats
        if kind == "mv":
            cases = {"E[W]": (est(w, "mean", True), gv.mhr2),
                     "E[W^2]": (est(w, "second_moment", True), gv.mhr2),
                     "E[g(W)]": (est(w, "utility_mv", True), gv.u0)}
        else:
            z = study.capped_exponential / (1.0 - gv.mhr2)
            cases = {"P[W>=1]": (est(w, "prob_ge_one", True),
                                 mmvlab.zero_density_probability(model, sol)),
                     "E[Z]": (est(z, "mean", True), 1.0),
                     "E[Z^2]": (est(z, "second_moment", True), gv.scale),
                     "E[g(W)]": (est(w, "utility_mmv", True), gv.u0)}
        return {"model": model, "sol": sol, "study": study, "cases": cases}


class McWealth(Workload):
    """Example 2 wealth study, streamed and over a materialized slice."""

    name = "mc_wealth"
    work_unit = "path_steps"
    threads = 1
    sizes = {"full": {"paths": 20_000, "steps": 2000, "slice": 2048},
             "tiny": {"paths": 64, "steps": 20, "slice": 16}}

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        self.study = _Study(self.p["paths"], self.p["steps"], seed)
        self.last: dict = {}

    def build_models(self) -> list:
        return [mmvlab.example_model(2)]

    def _check_pulls(self, result) -> list[str]:
        """Pulls are always recorded, and gated once the path count is large."""
        problems = []
        for label, (stats, want) in result["cases"].items():
            diff = abs(stats.estimate - want)
            if stats.std_error > 0.0:
                pull = diff / stats.std_error
                self.pulls.append(pull)
            else:
                pull = 0.0 if diff == 0.0 else math.inf
            if stats.n >= PULL_MIN_PATHS and not pull <= PULL_LIMIT_SE:
                problems.append(f"{label}: {stats.estimate!r} vs {want!r} is {pull:.2f} se")
        return problems

    def _run_study(self, kind: str):
        self.last[kind] = self.study.run(kind, self.threads)
        return self.last[kind]

    def _slice(self):
        ref = self.last["mmv"]
        sim = mmvlab.SimConfig(n_paths=self.p["slice"], n_steps=self.p["steps"], seed=self.seed)
        paths = mmvlab.simulate_paths(ref["model"], sim)
        wealth = mmvlab.wealth_recursion(paths, ref["sol"], "mmv")
        return wealth, mmvlab.montecarlo.capped_exponential(paths, ref["sol"])

    def _check_slice(self, result) -> list[str]:
        wealth, capped = result
        study = self.last["mmv"]["study"]
        k = self.p["slice"]
        problems = []
        if not np.array_equal(wealth[:, -1], study.terminal_wealth[:k]):
            problems.append("materialized terminal wealth differs from the streamed study")
        if not np.array_equal(capped, study.capped_exponential[:k]):
            problems.append("materialized capped exponential differs from the streamed study")
        return problems

    def ops(self) -> list[Op]:
        p = self.p
        return [
            Op("study_mv", lambda: self._run_study("mv"), self._check_pulls,
               p["paths"] * p["steps"]),
            Op("study_mmv", lambda: self._run_study("mmv"), self._check_pulls,
               p["paths"] * p["steps"]),
            Op("slice_mmv", self._slice, self._check_slice, p["slice"] * p["steps"]),
        ]


class McThreads(McWealth):
    """The mmv study on two threads: the simulator's chunk thread pool."""

    name = "mc_threads"
    threads = 2

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        self._reference = None

    def _check_threads(self, result) -> list[str]:
        problems = self._check_pulls(result)
        if self._reference is None:
            self._reference = self.study.run("mmv", 1)["study"]
        got = result["study"]
        for field in ("terminal_wealth", "capped_exponential", "terminal_increment"):
            if not np.array_equal(getattr(got, field), getattr(self._reference, field)):
                problems.append(f"{field} on {self.threads} threads differs from 1 thread")
        return problems

    def ops(self) -> list[Op]:
        p = self.p
        return [Op("study_mmv", lambda: self._run_study("mmv"), self._check_threads,
                   p["paths"] * p["steps"])]


WORKLOADS = {w.name: w for w in (AtomLaws, QuadDiagnose, McWealth, McThreads)}
