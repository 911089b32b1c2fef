"""vdelab benchmark: closed-loop CLI studies with checked reports.

Run from the repository root:

    python3 perfbench/run.py --workload small_study --seed 1 --seconds 40 --trace 0

Workloads are small_study, block_ray and mc_crosscheck (see workloads.py
and README.md); ``--workload all`` runs each in a fresh process.  One
client in one process runs passes of the workload's tasks back to back
for ``--seconds``: a pass starts only while a typical pass still ends in
time, and at least one pass runs.  BLAS is pinned to one thread before
numpy loads.  Before each task the process moves to the CPU that runs a
probe loop fastest, and task times are scaled to the probe's reference
speed.  Every report is checked, and
the last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
follows every untraced pass with a traced pass over the same inputs,
compares their reports byte for byte and reports the tracing overhead.
The full result, with the environment record, goes to perfbench/out/.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("small_study", "block_ray", "mc_crosscheck")
COMMANDS = ("classify", "constants", "solve", "scan", "density", "reduce", "sweep", "mc")
SETUP_CHILDREN = 4  # setup_s is the median of these and the run's own set-up
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
# wall_s is in seconds at the speed at which the probe loop takes this
# long, its time on a quiet 2-vCPU Xeon VM.  Over four sets of ten runs,
# scaling kept every spread of wall_s between 0.03 and 0.13; unscaled,
# small_study spread by up to 0.22 and block_ray by up to 0.20.
PROBE_REF_S = 0.8e-3
CHILD_TIMEOUT_S = 120

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "profiles.load_profile_s": "s",
    "profiles.classify_regime_s": "s",
    "profiles.expand_profile_s": "s",
    "profiles.rectangles": "count",
    "solver.solve_calls": "count",
    "solver.solve_s": "s",
    "solver.solve_path_s": "s",
    "solver.ms_per_point": "ms",
    "solver.iterations": "count",
    "solver.iters_per_point": "count",
    "solver.cold_starts": "count",
    "solver.max_residual_ratio": "ratio",
    "solver.min_fnorm_margin": "1",
    "solver.failures": "count",
    "asymptotics.fit_exponents_s": "s",
    "asymptotics.constant_system_s": "s",
    "asymptotics.vde_like_reduce_s": "s",
    "asymptotics.uniform_bound_sweep_s": "s",
    "asymptotics.exponent_err_max": "1",
    "density.rho_grid_s": "s",
    "density.rho_at_detailed_s": "s",
    "density.energies": "count",
    "density.solves_per_energy": "count",
    "density.divergent_points": "count",
    "density.exponent_err_max": "1",
    "montecarlo.sample_matrix_s": "s",
    "montecarlo.samples": "count",
    "montecarlo.entries_per_s": "1/s",
    "montecarlo.sample_spectrum_s": "s",
    "montecarlo.predicted_near_zero_mass_s": "s",
    "montecarlo.empirical_near_zero_s": "s",
    "cli.commands": "count",
    "cli.self_s": "s",
    "cli.report_bytes": "B",
    "cli.report_mismatch": "count",
    "trace.overhead_frac": "1",
    **{f"cmd.{c}_s": "s" for c in COMMANDS},
}
UNITS = {**E2E_UNITS, **LAYER_UNITS, "failed_frac": "1", "raw_wall_s": "s", "probe_ms": "ms"}


def load_program() -> None:
    """Put the checkout's own vdelab first on the path, BLAS pinned to 1 thread."""
    src = ROOT / "src"
    if not (src / "vdelab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no vdelab sources under {src}")
    for var in ("VDELAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import vdelab

    if Path(vdelab.__file__).resolve().parent != (src / "vdelab").resolve():
        raise SystemExit(f"perfbench: imported vdelab from {vdelab.__file__}, not {src}")


def _probe_s() -> float:
    """Time a fixed pure-Python loop of about a millisecond."""
    t0 = time.perf_counter()
    total = 0
    for i in range(15000):
        total += i * i
    return time.perf_counter() - t0


def move_to_fastest_cpu() -> float:
    """Pin this process to the allowed CPU that runs a probe loop fastest now.

    On a shared host each virtual CPU slows down by 1.5x or more while its
    neighbours are busy, in spells from a second to minutes, and the CPUs
    slow down independently.  Moving to the quicker one before each task
    makes runs in which every task meets a slow spell rarer.
    release_cpus() undoes the pin.  Returns the probe time on the chosen
    CPU, a record of the host's speed at that moment.
    """
    if len(CPUS) < 2:
        return _probe_s()
    timings = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        _probe_s()  # the first loop after a move pays for cold caches
        timings.append((_probe_s(), cpu))
    probe_s, cpu = min(timings)
    os.sched_setaffinity(0, {cpu})
    return probe_s


def release_cpus() -> None:
    if len(CPUS) >= 2:
        os.sched_setaffinity(0, CPUS)


@dataclass
class PassResult:
    task_s: dict = field(default_factory=dict)  # name -> seconds in the program's call
    probe_s: dict = field(default_factory=dict)  # name -> probe time just before the call
    failed: int = 0
    observations: dict = field(default_factory=lambda: defaultdict(list))
    reports: dict = field(default_factory=dict)


def run_pass(tasks, failures: list[str]) -> PassResult:
    """Run tasks in order; a task fails on a nonzero status, an exception or a check."""
    result = PassResult()
    for task in tasks:
        result.probe_s[task.name] = move_to_fastest_cpu()
        t0 = time.perf_counter()
        try:
            status = task.call()
        except Exception:
            status = None
            failures.append(f"{task.name}: {traceback.format_exc()}")
        result.task_s[task.name] = time.perf_counter() - t0
        if status == 0:
            try:
                for key, value in task.check().items():
                    result.observations[f"{task.command}.{key}"].append(value)
                if task.report is not None:
                    result.reports[task.name] = task.report.read_bytes()
                continue
            except Exception as exc:
                failures.append(f"{task.name}: check failed: {exc!r}")
        elif status is not None:
            failures.append(f"{task.name}: exit status {status}")
        result.failed += 1
    return result


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _mean_time(passes: list[PassResult], names, scaled: bool = False) -> float:
    """Mean over the passes of the time the named tasks took in one pass.

    With `scaled`, each task's time is first multiplied by PROBE_REF_S over
    the probe time taken just before the task: seconds at the probe's
    reference speed.  That takes out the host's slow spells, which can last
    a whole run.
    """
    def seconds(p: PassResult, name: str) -> float:
        return p.task_s[name] * (PROBE_REF_S / p.probe_s[name] if scaled else 1.0)

    return statistics.fmean(sum(seconds(p, name) for name in names) for p in passes)


def _max_observed(passes: list[PassResult], key: str) -> float:
    """Median over passes of the largest value a pass observed under key."""
    return _median(max(p.observations[key]) for p in passes if p.observations[key])


def measure(tasks, seconds: float, traced: bool, spans_path: Path) -> dict:
    """Repeat the pass for about `seconds`; with `traced`, each pass twice."""
    from spans import Tracer, layer_metrics

    plain: list[PassResult] = []
    traced_passes: list[PassResult] = []
    layers: list[dict] = []
    failures: list[str] = []
    mismatches = 0
    spans_fh = open(spans_path, "w", encoding="utf-8") if traced else None
    try:
        start = time.perf_counter()
        durations: list[float] = []
        # start a pass only if a typical pass still ends within `seconds`
        while not durations or time.perf_counter() - start + _median(durations) <= seconds:
            t0 = time.perf_counter()
            plain.append(run_pass(tasks, failures))
            if traced:
                with Tracer() as tracer:
                    traced_passes.append(run_pass(tasks, failures))
                layers.append(layer_metrics(tracer.spans))
                tracer.dump(spans_fh, pass_index=len(layers) - 1)
                twin, mine = plain[-1].reports, traced_passes[-1].reports
                mismatches += sum(twin.get(k) != mine.get(k) for k in twin.keys() | mine.keys())
            durations.append(time.perf_counter() - t0)
    finally:
        if spans_fh is not None:
            spans_fh.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    every = plain + traced_passes
    attempted = sum(len(p.task_s) for p in every)
    failed = sum(p.failed for p in every)
    names = [task.name for task in tasks]
    wall_s = _mean_time(plain, names, scaled=True)
    cmd_s = {
        f"cmd.{c}_s": _mean_time(plain, [t.name for t in tasks if t.command == c], scaled=True)
        for c in COMMANDS
    }
    out = {
        "passes": len(plain),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "e2e": {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb},
        "extra": {
            "failed_frac": failed / attempted,
            "raw_wall_s": _mean_time(plain, names),
            "probe_ms": 1e3 * _median(p.probe_s[name] for p in plain for name in names),
            **cmd_s,
        },
        "pass_task_s": [p.task_s for p in plain],
        "pass_probe_s": [p.probe_s for p in plain],
    }
    if traced:
        per_layer = {key: _median(m[key] for m in layers) for key in layers[0]}
        per_layer["density.exponent_err_max"] = _max_observed(traced_passes, "density.exponent_err")
        per_layer["asymptotics.exponent_err_max"] = _max_observed(traced_passes, "scan.exponent_err")
        per_layer["cli.report_mismatch"] = mismatches
        per_layer["trace.overhead_frac"] = _mean_time(traced_passes, names, scaled=True) / wall_s - 1.0
        out["per_layer"] = {**per_layer, **cmd_s}
    return out


def set_up(workload: str, seed: int, workdir: Path):
    """Imports, profile files and one warm-up per command kind.

    Returns (seconds since the process started, the workload's tasks,
    warm-up failures).
    """
    from workloads import WORKLOADS, warmups

    failures: list[str] = []
    workdir.mkdir(parents=True, exist_ok=True)
    tasks = WORKLOADS[workload](seed, workdir)
    run_pass(warmups(workload, workdir), failures)
    return time.perf_counter() - _T0, tasks, failures


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time of a fresh process that stops after set-up."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up child failed:\n{done.stderr[-4000:]}")
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {UNITS[name]}")


def run_one(args) -> int:
    move_to_fastest_cpu()
    load_program()
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        setup_s, tasks, setup_failures = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "failures": setup_failures}))
            return 0 if not setup_failures else 1
        for failure in setup_failures:
            print(f"perfbench: warm-up failed: {failure}", file=sys.stderr)
        if setup_failures:
            return 1
        result = measure(tasks, args.seconds, args.trace == 1,
                         OUT / f"{args.workload}.spans.jsonl")
    finally:
        release_cpus()
        shutil.rmtree(workdir, ignore_errors=True)
    samples = [setup_s] + [child_setup_s(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]

    from envinfo import environment

    e2e = {"setup_s": _median(samples), **result["e2e"]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(ROOT),
        "setup_samples_s": samples,
        **result,
        "e2e": e2e,
    }
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    for failure in result["failures"]:
        print(f"perfbench: {failure}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  passes {result['passes']}"
          f"{' (each also traced)' if args.trace else ''}")
    print(f"environment {json.dumps(record['environment'])}")
    print_table("end-to-end (untraced passes)", {**e2e, **result["extra"]})
    chosen = e2e
    if args.trace:
        print_table("per-layer (traced passes)", result["per_layer"])
        chosen = result["per_layer"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in chosen.items()
        },
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited with status {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
