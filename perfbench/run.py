"""mmvlab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload atom_laws [--seed 0] [--seconds 30] [--trace 0]

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file.  ``--trace 0`` prints the end-to-end metrics
(wall_ref, work_per_ref, setup_s, peak_rss_mb); ``--trace 1`` runs untraced
passes, then traced passes, and prints the per-layer metrics.  Every
metric is printed by name with its unit, followed by one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Result files and the
span dump go to ``perfbench/out/``.  The default seed is 0.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("atom_laws", "quad_diagnose", "mc_wealth", "mc_threads")
SETUP_SAMPLES = 3          # at least: this process plus two child processes
SETUP_MAX_SAMPLES = 7      # more child set-ups while the samples so far ...
SETUP_BUDGET_S = 6.0       # ... sum to less than this
CHILD_TIMEOUT_S = 120
REF_REPEATS = 3            # reference runs timed before and after each operation
REF_NOMINAL_S = 0.012      # setup_s is stated for a host where one ref takes this long


class Reference:
    """A fixed piece of work whose time is one ref: the host's speed right now.

    It mixes the three kinds of work the program does, in about equal
    parts: interpreted float arithmetic, tuple and dict handling spread
    over a few MB of objects, and small numpy calls.  Build it after the
    set-up is timed (it imports numpy).
    """

    def __init__(self):
        import numpy
        rng = numpy.random.default_rng(0)
        self._exp = numpy.exp
        self._objects = [(i, i * 0.5, str(i)) for i in range(60_000)]
        self._order = rng.permutation(60_000)[:8_000].tolist()
        self._vec = rng.random(8)

    def once(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(40_000):
            acc += i * 0.5
        table = {}
        for j in self._order:
            obj = self._objects[j]
            table[obj[2]] = obj[1]
        for _ in range(1_200):
            acc += float(self._exp(self._vec * 0.5).sum())
        return time.perf_counter() - t0

    def seconds(self) -> float:
        """Median of a few runs, so one preempted run does not count."""
        return statistics.median(self.once() for _ in range(REF_REPEATS))


def timed_setup(name: str, seed: int, size: str):
    """Cold import, seeded inputs, one build of every model, tiny warm-up pass.

    Returns (seconds, workload, tally of the warm-up pass).  Must run
    before anything in this process imports numpy or mmvlab.
    """
    t0 = time.perf_counter()
    import mmvlab  # noqa: F401  (the cold import is part of set-up)
    import workloads
    workload = workloads.WORKLOADS[name](seed, size)
    workload.build_models()
    warm_up = Tally()
    run_pass(workloads.WORKLOADS[name](seed, "tiny"), warm_up)
    tally = Tally()
    tally.add(warm_up)
    return time.perf_counter() - t0, workload, tally


class Tally:
    """Attempted and failed operations, with per-operation timings.

    op_times holds seconds; op_refs the same times in refs, each divided
    by the reference loops timed right before and right after it.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.op_times: dict[str, list[float]] = {}
        self.op_refs: dict[str, list[float]] = {}
        self.ref_s: list[float] = []

    def add(self, other: "Tally") -> None:
        """Take over other's counts and failures, not its timings."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


def run_pass(workload, tally: Tally, tracer=None, ref: Reference | None = None) -> float:
    """Run every operation once; returns the summed operation time.

    With a reference, each operation is also timed in refs (see Tally).
    """
    total = 0.0
    for op in workload.ops():
        tally.attempted += 1
        ref_before = ref.seconds() if ref is not None else 0.0
        if tracer is not None:
            tracer.op_id += 1
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # an operation that raises has failed
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        total += elapsed
        tally.op_times.setdefault(op.name, []).append(elapsed)
        if ref is not None:
            ref_s = 0.5 * (ref_before + ref.seconds())
            tally.op_refs.setdefault(op.name, []).append(elapsed / ref_s)
            tally.ref_s.append(ref_s)
        if error is None:
            try:
                problems = op.check(result)
            except Exception as exc:  # a check that cannot run is a failure
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        if problems:
            tally.failed += 1
            tally.failures += [f"{workload.name}/{op.name}: {p}" for p in problems[:5]]
    return total


def measure(workload, seconds: float, tally: Tally, ref: Reference,
            tracer=None) -> list[float]:
    """Pass times of a run lasting about `seconds` (at least one pass).

    Another pass starts only if, at the last pass's pace, stopping after
    it lands nearer to `seconds` than stopping now.
    """
    start = time.perf_counter()
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, tally, tracer, ref))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + 0.5 * last >= seconds:
            return passes


def median_pass(op_values: dict[str, list[float]]) -> float:
    """One pass at each operation's median over the run."""
    return sum(statistics.median(v) for v in op_values.values())


def setup_times(args, first: tuple[float, float]) -> list[tuple[float, float]]:
    """(set-up seconds, ref seconds right after it) of this process, then of
    fresh interpreters, one after another.

    Cheap set-ups are sampled more often, so their median is as steady as
    that of the expensive ones.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    times = [first]
    while len(times) < SETUP_SAMPLES or (len(times) < SETUP_MAX_SAMPLES
                                         and sum(t for t, _ in times) < SETUP_BUDGET_S):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              cwd=ROOT, check=True)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((sample["setup_s"], sample["ref_s"]))
    return times


def machine_facts(workload) -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    threads = getattr(workload, "threads", None)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "MMVLAB_THREADS": str(threads) if threads is not None
        else os.environ.get("MMVLAB_THREADS", "unset (1)"),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _commit() -> str:
    """HEAD of the checkout's own .git, or 'unknown' (src_sha256 still names the code)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mmvlab").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def end_to_end(args, workload, tally: Tally, ref: Reference,
               setup: tuple[float, float]) -> tuple[dict, list[float]]:
    setups = setup_times(args, setup)
    setup_nominal = [t * REF_NOMINAL_S / r for t, r in setups]
    passes = measure(workload, args.seconds, tally, ref)
    wall_ref = median_pass(tally.op_refs)
    wall_s = median_pass(tally.op_times)
    ref_ms = 1e3 * statistics.median(tally.ref_s)
    items = sum(op.items for op in workload.ops())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"passes: {len(passes)} ({', '.join(f'{p:.3f}' for p in passes)} s)")
    print(f"wall_s = {wall_s:.4f} s (sum of per-operation medians); reference loop "
          f"median {ref_ms:.3f} ms over {len(tally.ref_s)}; wall_ref = {wall_ref:.2f} ref")
    print(f"setup samples: {', '.join(f'{t:.3f}' for t, _ in setups)} s; at "
          f"{1e3 * REF_NOMINAL_S:g} ms per ref: {', '.join(f'{t:.3f}' for t in setup_nominal)} s")
    print(f"{workload.work_unit}_per_s = {items / wall_s:.6g}, "
          f"{workload.work_unit}_per_ref = {items / wall_ref:.6g} ({items} per pass)")
    return {
        "wall_ref": (wall_ref, "ref"),
        "work_per_ref": (items / wall_ref, "1/ref"),
        "setup_s": (statistics.median(setup_nominal), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }, passes


def per_layer(args, workload, tally: Tally, ref: Reference) -> tuple[dict, list[float]]:
    import tracing
    base = measure(workload, args.seconds / 2.0, tally, ref)
    tracer = tracing.Tracer()
    tracer.install()
    traced_tally = Tally()
    t0 = time.perf_counter()
    try:
        traced = measure(workload, args.seconds / 2.0, traced_tally, ref, tracer)
    finally:
        tracer.restore()
    tally.add(traced_tally)
    n = len(traced)
    table = tracer.layer_table(sum(traced))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.csv.gz"
    tracer.write_spans(spans_path, t0)

    counts = tracer.counts
    layer = table["layer_self"]
    incl = table["name_incl"]
    interior = tracer.boundedness["interior"]
    points = sum(tracer.boundedness.values())

    def calls(prefix: str, suffix: str = "") -> float:
        return sum(v for k, v in counts.items()
                   if k.startswith(prefix) and k.endswith(suffix)) / n

    def per_mrow(names, rows) -> float:
        return sum(incl.get(k, 0.0) for k in names) / (rows / 1e6) if rows else 0.0

    metrics = {
        "trace.wall_s": (sum(traced) / n, "s"),
        "trace.overhead_frac": (median_pass(traced_tally.op_refs) / median_pass(tally.op_refs)
                                - 1.0, "ratio"),
        "host.ref_ms": (1e3 * statistics.median(tally.ref_s + traced_tally.ref_s), "ms"),
        "trace.spans": (table["spans"] / n, "count"),
        "other_s": (table["other_s"] / n, "s"),
        "optimize.points": (points / n, "count"),
        "optimize.point_ms.p50": (tracing.percentile(table["point_ms"], 50), "ms"),
        "optimize.point_ms.p99": (tracing.percentile(table["point_ms"], 99), "ms"),
        "optimize.foc_calls": ((counts["optimize.foc_residual"]
                                + counts["optimize.foc_closure_calls"]) / n, "count"),
        "optimize.objective_calls": (counts["optimize.objective_calls"] / n, "count"),
        "optimize.interior_frac": (interior / points if points else 0.0, "ratio"),
        "model.chars.calls": (counts["model.JumpAtom.chars"] / n, "count"),
        "model.build_s": ((incl.get("model.build_model", 0.0)
                           + incl.get("examples.example_model", 0.0)) / n, "s"),
        "quad.calls": (calls("quad.", ("_panel", "_tail", "_gaussian")), "count"),
        "quad.nodes": (counts["quad.nodes"] / n, "count"),
        "measures.integrate.calls": (calls("measures.", ".integrate"), "count"),
        "measures.mass_scaled_ge.calls": (calls("measures.", ".mass_scaled_ge"), "count"),
        "measures.sample.calls": (calls("measures.", ".sample"), "count"),
        "drift.calls": (calls("drift."), "count"),
        "localutil.calls": (calls("localutil."), "count"),
        "duality.calls": (calls("duality."), "count"),
        "montecarlo.draw_s_per_mrow": (
            per_mrow(["montecarlo.simulate_paths"], tracer.sim_rows), "s/Mrow"),
        "montecarlo.reduce_s_per_mrow": (
            per_mrow(["montecarlo.wealth_recursion", "montecarlo.capped_exponential"],
                     tracer.reduce_rows), "s/Mrow"),
        "montecarlo.study_self_s": (
            table["name_self"].get("montecarlo.run_wealth_study", 0.0) / n, "s"),
        "montecarlo.stats_self_s": (
            table["name_self"].get("montecarlo.estimate_stats", 0.0) / n, "s"),
        "montecarlo.max_pull_se": (max(workload.pulls, default=0.0), "se"),
    }
    for name in tracing.LAYERS:
        metrics[f"{name}.self_s"] = (layer[name] / n, "s")
    print(f"untraced passes: {len(base)}, traced passes: {n}, spans written to "
          f"{spans_path.relative_to(ROOT)}")
    print("per-layer self time per traced pass:")
    wall = sum(traced) / n
    for name in sorted(layer, key=layer.get, reverse=True):
        print(f"  {name:<11} {layer[name] / n:10.4f} s  {100 * layer[name] / n / wall:5.1f} %")
    print(f"  {'other':<11} {table['other_s'] / n:10.4f} s  "
          f"{100 * table['other_s'] / n / wall:5.1f} %")
    print(f"  {'sum':<11} {(sum(layer.values()) + table['other_s']) / n:10.4f} s  "
          f"(traced wall {wall:.4f} s, untraced {median_pass(tally.op_times):.4f} s)")
    return metrics, base + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per run (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same operations on small inputs")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and the reference after it, and print both")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "mmvlab" / "__init__.py").is_file():
        print(f"error: no mmvlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    setup_s, workload, tally = timed_setup(args.workload, args.seed, args.size)
    ref = Reference()
    setup = (setup_s, ref.seconds())
    if args.setup_only:
        print(json.dumps({"setup_s": setup[0], "ref_s": setup[1]}))
        return 0
    facts = machine_facts(workload)
    print(f"perfbench workload={args.workload} seed={args.seed} size={args.size} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    if args.trace:
        metrics, passes = per_layer(args, workload, tally, ref)
    else:
        metrics, passes = end_to_end(args, workload, tally, ref, setup)
    for name, values in sorted(tally.op_times.items()):
        print(f"op {name}: median {statistics.median(values):.4f} s, "
              f"{statistics.median(tally.op_refs[name]):.2f} ref over {len(values)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"failed_frac = {tally.failed}/{tally.attempted}")
    for line in tally.failures[:20]:
        print(f"FAILED {line}")

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, size=args.size,
                  seconds=args.seconds, trace=args.trace, machine=facts,
                  failures=tally.failures, pass_times=passes,
                  op_times_s=tally.op_times, op_refs=tally.op_refs, ref_s=tally.ref_s)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
