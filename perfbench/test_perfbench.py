"""Tests of the benchmark's own arithmetic and tracing.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os
import time
from pathlib import Path

import pytest

import run

run.load_program()

import checks  # noqa: E402
import spans  # noqa: E402
import vdelab.density  # noqa: E402
import vdelab.montecarlo  # noqa: E402
import vdelab.solver  # noqa: E402
import workloads  # noqa: E402
from vdelab.profiles import staircase_profile  # noqa: E402


def _span(sid, parent, name, start, end, **attrs):
    return spans.Span(sid, parent, name, start, end, attrs)


def test_self_time_subtracts_nested_children_once():
    tree = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "solver.solve_path", 1.0, 4.0),
        _span(2, 1, "solver.solve", 2.0, 3.0),
        _span(3, 0, "solver.solve_path", 5.0, 7.0),
    ]
    assert spans.self_times(tree) == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0})


def test_self_time_counts_overlapping_children_as_their_union():
    tree = [
        _span(0, None, "a", 0.0, 10.0),
        _span(1, 0, "b", 1.0, 4.0),
        _span(2, 0, "b", 3.0, 6.0),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_layer_metrics_from_synthetic_spans():
    tree = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "cli.run", 1.0, 9.0, report_bytes=100),
        _span(2, 1, "density.rho_at_detailed", 2.0, 6.0, divergent=True),
        _span(3, 2, "solver.solve", 2.0, 3.0, iterations=4, residual_ratio=0.5,
              fnorm_margin=1e-3, cold=True),
        _span(4, 2, "solver.solve", 3.0, 5.0, iterations=2, residual_ratio=0.25,
              fnorm_margin=1e-4, cold=False),
    ]
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(2.0 + 4.0)
    assert m["cli.report_bytes"] == 100
    assert m["solver.solve_calls"] == 2
    assert m["solver.iterations"] == 6
    assert m["solver.ms_per_point"] == pytest.approx(1500.0)
    assert m["solver.cold_starts"] == 1
    assert m["solver.max_residual_ratio"] == 0.5
    assert m["solver.min_fnorm_margin"] == 1e-4
    assert m["density.rho_at_detailed_s"] == pytest.approx(1.0)
    assert m["density.solves_per_energy"] == 2
    assert m["density.divergent_points"] == 1


ALIASES = [
    (vdelab.density, "solve", vdelab.solver, "solve"),
    (vdelab.montecarlo, "solve", vdelab.solver, "solve"),
    (vdelab.montecarlo, "rho_at", vdelab.density, "rho_at"),
]


def test_tracer_rebinds_aliases_and_restores_them():
    originals = [getattr(mod, attr) for mod, attr, _, _ in ALIASES]
    with spans.Tracer() as tracer:
        for (mod, attr, home, name), original in zip(ALIASES, originals):
            assert getattr(mod, attr) is getattr(home, name)
            assert getattr(mod, attr).__wrapped__ is original
        vdelab.density.rho_at(staircase_profile(2), 0.5)
    for (mod, attr, _, _), original in zip(ALIASES, originals):
        assert getattr(mod, attr) is original
    names = {s.sid: s.name for s in tracer.spans}
    solves = [s for s in tracer.spans if s.name == "solver.solve"]
    assert solves and all(names[s.parent] == "density.rho_at_detailed" for s in solves)
    assert names[tracer.spans[1].parent] == "density.rho_at"


def test_tracer_restores_after_an_exception():
    original = vdelab.solver.solve
    with pytest.raises(ValueError):
        with spans.Tracer() as tracer:
            vdelab.density.rho_at(staircase_profile(2), 0.5, eta_schedule=(1.0, 0.5))
    assert vdelab.solver.solve is original and vdelab.density.solve is original
    assert tracer.spans[-1].attrs["error"] == "ValueError"


def test_untraced_passes_run_on_the_original_functions(tmp_path):
    seen = []

    def call():
        seen.append(hasattr(vdelab.density.solve, "__wrapped__"))
        time.sleep(0.02)
        return 0

    tasks = [workloads.Task("t", "solve", call, lambda: {}, None)]
    result = run.measure(tasks, 0.2, True, tmp_path / "spans.jsonl")
    assert len(seen) >= 4
    assert seen == [False, True] * (len(seen) // 2)
    assert vdelab.density.solve is vdelab.solver.solve
    assert not hasattr(vdelab.solver.solve, "__wrapped__")
    assert set(result["per_layer"]) == set(run.LAYER_UNITS)
    assert result["failed"] == 0 and result["attempted"] == len(seen)


def test_failed_checks_and_statuses_count_as_failures(tmp_path):
    bad = tmp_path / "density.txt"
    bad.write_text("# vdelab 0\n# config x\n# total_mass 1.2\n# divergence_exponent -0.33\n")
    tasks = [
        workloads.Task("bad-check", "density", lambda: 0,
                       lambda: checks.check_density(bad, 2, True), None),
        workloads.Task("bad-status", "solve", lambda: 2, lambda: {}, None),
        workloads.Task("raises", "solve", lambda: 1 / 0, lambda: {}, None),
        workloads.Task("ok", "solve", lambda: 0, lambda: {}, None),
    ]
    failures = []
    result = run.run_pass(tasks, failures)
    assert (len(result.task_s), result.failed, len(failures)) == (4, 3, 3)
    assert "total mass" in failures[0]


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_mean_time_is_the_mean_pass_over_the_named_tasks():
    passes = [
        run.PassResult(task_s={"a": 1.0, "b": 5.0}),
        run.PassResult(task_s={"a": 2.0, "b": 3.0}),
    ]
    assert run._mean_time(passes, ["a", "b"]) == pytest.approx(5.5)
    assert run._mean_time(passes, ["b"]) == pytest.approx(4.0)
    assert run._mean_time(passes, []) == 0.0


def test_scaled_mean_time_is_at_the_probes_reference_speed():
    ref = run.PROBE_REF_S
    passes = [
        run.PassResult(task_s={"a": 1.0}, probe_s={"a": ref}),
        run.PassResult(task_s={"a": 1.5}, probe_s={"a": 2 * ref}),
    ]
    assert run._mean_time(passes, ["a"], scaled=True) == pytest.approx(0.875)
    assert run._mean_time(passes, ["a"]) == pytest.approx(1.25)


def test_cpu_pin_is_one_allowed_cpu_and_is_released():
    allowed = set(run.CPUS)
    run.move_to_fastest_cpu()
    try:
        pinned = os.sched_getaffinity(0)
    finally:
        run.release_cpus()
    assert pinned <= allowed
    if len(allowed) >= 2:
        assert len(pinned) == 1
    assert os.sched_getaffinity(0) == allowed
