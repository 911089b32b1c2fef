"""The benchmark's workloads: one pass of tasks each, made from a seed.

A task is one CLI command run in-process through ``vdelab.cli.main(argv)``
and checked afterwards, or, for the complex-Hermitian ensemble that has no
CLI flag, the ``empirical_near_zero`` call the ``mc`` handler would make.
Random inputs are drawn from the seed, so the same seed gives the same
tasks, and every pass of a run repeats them.  Functions of vdelab are
looked up on their module at call time, so a traced pass sees the traced
versions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import vdelab.cli
import vdelab.montecarlo
from vdelab.profiles import random_staircase_profile, staircase_profile
from vdelab.solver import suggested_tol

import checks

SIDE_RAY = 0.3 * math.pi
AXIS_RAY = math.pi / 2
SMALL_R_MIN = 1e-6
BLOCK_R_MIN = 1e-5
BLOCK_NOISE = "0.5"
MC_DELTA = 0.1
MC_INNER = 400


@dataclass(frozen=True)
class Task:
    name: str  # unique within a pass; also the report's file stem
    command: str  # CLI command kind, for the per-command times
    call: Callable[[], int]  # runs the task, returns its exit status
    check: Callable[[], dict]  # raises checks.CheckFailure, returns observations
    report: Path | None


def _write_profile(path: Path, profile) -> Path:
    path.write_text(json.dumps({"matrix": profile.entries.tolist()}), encoding="utf-8")
    return path


def _cli(name: str, command: str, profile: Path, workdir: Path, extra, check) -> Task:
    out = workdir / f"{name}.txt"
    argv = ["--command", command, "--profile", str(profile), "--out", str(out), *extra]
    return Task(name, command, lambda: vdelab.cli.main(argv), partial(check, out), out)


def _seeds(seed: int, count: int) -> list[int]:
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(count)]


def _study(label: str, n: int, prof, canonical: bool, perm_seed: int, workdir: Path):
    """classify, constants, solve, two scans and density for one profile."""
    path = _write_profile(workdir / f"{label}.json", prof)
    shuffled = prof.permuted(np.random.default_rng(perm_seed).permutation(n))
    shuffled_path = _write_profile(workdir / f"{label}-shuffled.json", shuffled)
    # criteria 2, 3 and 7 are stated for all-ones staircases of these sizes
    scan_check = partial(checks.check_scan, n=n, gated=canonical and n <= 5)
    return [
        _cli(f"{label}-classify", "classify", shuffled_path, workdir, [],
             partial(checks.check_classify, shuffled=shuffled)),
        _cli(f"{label}-constants", "constants", path, workdir, [],
             partial(checks.check_constants, n=n)),
        _cli(f"{label}-solve", "solve", path, workdir, ["--rmin", repr(SMALL_R_MIN)],
             partial(checks.check_solve, profile=prof, r_min=SMALL_R_MIN)),
        _cli(f"{label}-scan-axis", "scan", path, workdir, ["--ray", repr(AXIS_RAY)],
             scan_check),
        _cli(f"{label}-scan-side", "scan", path, workdir, ["--ray", repr(SIDE_RAY)],
             scan_check),
        _cli(f"{label}-density", "density", path, workdir, [],
             partial(checks.check_density, n=n, gated=canonical and n <= 3)),
    ]


def small_study(seed: int, workdir: Path) -> list[Task]:
    """Four all-ones staircases and three random ones, n <= 7."""
    draws = _seeds(seed, 10)
    tasks = []
    for i, n in enumerate((2, 3, 4, 6)):
        tasks += _study(f"stair{n}", n, staircase_profile(n), True, draws[i], workdir)
    for i, n in enumerate((3, 5, 7)):
        prof = random_staircase_profile(n, draws[4 + i])
        tasks += _study(f"rand{n}", n, prof, False, draws[7 + i], workdir)
    return tasks


def _reduce(name, path, workdir, inner: int, ray: float, expand_seed: int, tol) -> Task:
    extra = ["--N", str(inner), "--noise", BLOCK_NOISE, "--rmin", repr(BLOCK_R_MIN),
             "--ray", repr(ray), "--seed", str(expand_seed)]
    return _cli(name, "reduce", path, workdir, extra, partial(checks.check_reduce, tol=tol))


def _sweep(name, path, workdir, inner: tuple[int, ...], expand_seed: int) -> Task:
    extra = ["--N", ",".join(map(str, inner)), "--noise", BLOCK_NOISE,
             "--seed", str(expand_seed)]
    return _cli(name, "sweep", path, workdir, extra, partial(checks.check_sweep, inner=inner))


def block_ray(seed: int, workdir: Path) -> list[Task]:
    """Noisy N-block expansions of the n=3 staircase, dimension 192 to 768."""
    (expand_seed,) = _seeds(seed, 1)
    small = staircase_profile(3)
    path = _write_profile(workdir / "stair3.json", small)
    # the CLI's tolerance for an expanded profile depends only on n = 3
    tol = suggested_tol(small, BLOCK_R_MIN)
    tasks = [
        _reduce(f"reduce-N{inner}-axis", path, workdir, inner, AXIS_RAY, expand_seed, tol)
        for inner in (64, 128, 256)
    ]
    tasks.append(_reduce("reduce-N128-side", path, workdir, 128, SIDE_RAY, expand_seed, tol))
    tasks.append(_sweep("sweep", path, workdir, (16, 32, 64), expand_seed))
    return tasks


def _mc(name, path, workdir, trials: int, mc_seed: int, inner: int = MC_INNER) -> Task:
    extra = ["--N", str(inner), "--trials", str(trials), "--delta", repr(MC_DELTA),
             "--seed", str(mc_seed)]
    return _cli(name, "mc", path, workdir, extra, checks.check_mc)


def _complex_mc(name: str, trials: int, mc_seed: int, inner: int = MC_INNER) -> Task:
    spec = vdelab.montecarlo.EnsembleSpec(
        small_profile=staircase_profile(3),
        inner_N=inner,
        symmetry=vdelab.montecarlo.COMPLEX_HERMITIAN,
        trials=trials,
        seed=mc_seed,
    )
    results = []

    def call() -> int:
        results.append(vdelab.montecarlo.empirical_near_zero(spec, MC_DELTA))
        return 0

    def check() -> dict:
        result = results.pop()
        return checks.check_mc_fraction(result.fraction, result.prediction)

    return Task(name, "mc", call, check, None)


def mc_crosscheck(seed: int, workdir: Path) -> list[Task]:
    """Criterion 11's ensemble, and n=3 real and complex ensembles at d=1200."""
    draws = _seeds(seed, 3)
    p2 = _write_profile(workdir / "stair2.json", staircase_profile(2))
    p3 = _write_profile(workdir / "stair3.json", staircase_profile(3))
    return [
        _mc("mc-n2-real", p2, workdir, 20, draws[0]),
        _mc("mc-n3-real", p3, workdir, 8, draws[1]),
        _complex_mc("mc-n3-complex", 4, draws[2]),
    ]


def warmups(workload: str, workdir: Path) -> list[Task]:
    """One small run of every command kind the workload uses, unchecked.

    The sizes are too small for the criteria's bounds, so only the exit
    status counts.
    """
    if workload == "small_study":
        tasks = _study("warm", 2, staircase_profile(2), True, 0, workdir)
    elif workload == "block_ray":
        path = _write_profile(workdir / "warm.json", staircase_profile(3))
        tasks = [
            _reduce("warm-reduce", path, workdir, 8, AXIS_RAY, 0, 0.0),
            _sweep("warm-sweep", path, workdir, (4, 8), 0),
        ]
    else:
        path = _write_profile(workdir / "warm.json", staircase_profile(2))
        tasks = [
            _mc("warm-mc", path, workdir, 2, 0, inner=16),
            _complex_mc("warm-mc-complex", 1, 0, inner=16),
        ]
    return [replace(task, check=lambda: {}) for task in tasks]


WORKLOADS = {
    "small_study": small_study,
    "block_ray": block_ray,
    "mc_crosscheck": mc_crosscheck,
}
