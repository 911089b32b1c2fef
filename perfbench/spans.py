"""In-memory spans around vdelab's public functions, for the traced run.

A Tracer replaces each function in TARGETS with a recording wrapper in
every loaded ``vdelab.*`` module that binds the same function object, so
aliases made by ``from .solver import solve`` (``density.solve``,
``montecarlo.rho_at``, ...) are traced too, and it puts the originals back
on exit.  vdelab's layers call each other through module-global names,
which makes the spans nest: a span's parent is the traced call that was
running when it started, and its self time is its duration minus the time
its child spans cover.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@functools.cache
def _default_tol() -> float:
    from vdelab.solver import SolverOptions

    return SolverOptions().tol


def _observe_solve(args, kwargs, sol) -> dict:
    opts = args[2] if len(args) > 2 else kwargs.get("opts")
    warm = args[3] if len(args) > 3 else kwargs.get("warm_start")
    tol = opts.tol if opts is not None else _default_tol()
    return {
        "iterations": sol.iterations,
        "residual_ratio": sol.residual / tol,
        "fnorm_margin": 1.0 - sol.f_norm,
        "cold": warm is None,
    }


def _observe_run(args, _kwargs, _result) -> dict:
    return {"report_bytes": os.path.getsize(args[0].output_path)}


# layer -> {public function -> observer(args, kwargs, result) -> span attrs}
TARGETS = {
    "profiles": {
        "load_profile": None,
        "classify_regime": None,
        "expand_profile": None,
        "maximal_zero_rectangles": lambda a, k, r: {"count": len(r)},
    },
    "solver": {
        "solve": _observe_solve,
        "solve_path": lambda a, k, r: {"points": len(r)},
    },
    "asymptotics": {
        "fit_exponents": None,
        "constant_system": None,
        "vde_like_reduce": None,
        "uniform_bound_sweep": None,
    },
    "density": {
        "rho_grid": None,
        "rho_at": None,
        "rho_at_detailed": lambda a, k, r: {"divergent": bool(r.divergent)},
    },
    "montecarlo": {
        "sample_matrix": lambda a, k, r: {"entries": int(r.size)},
        "sample_spectrum": None,
        "predicted_near_zero_mass": None,
        "empirical_near_zero": None,
    },
    "cli": {
        "main": None,
        "run": _observe_run,
    },
}


class Tracer:
    """Context manager that records a Span for every call to a TARGETS function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1].sid if stack else None, name, clock())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                span.attrs.update(observe(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for layer in TARGETS:
            importlib.import_module(f"vdelab.{layer}")
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "vdelab" or name.startswith("vdelab."))
        ]
        try:
            for layer, functions in TARGETS.items():
                home = sys.modules[f"vdelab.{layer}"]
                for fname, observe in functions.items():
                    original = getattr(home, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", original, observe)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._bindings.append((mod, attr, original))
                                setattr(mod, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def dump(self, fh, **labels) -> None:
        """Write the recorded spans to an open text file, one JSON line each."""
        for s in self.spans:
            fh.write(json.dumps({
                **labels, "id": s.sid, "parent": s.parent, "name": s.name,
                "start": s.start, "end": s.end, **s.attrs,
            }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for c_lo, c_hi in sorted(children[s.sid]):
            c_lo, c_hi = max(c_lo, s.start), min(c_hi, s.end)
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out[s.sid] = s.duration - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see README.md for the list)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name: str, self_only: bool = False) -> float:
        return sum(own[s.sid] if self_only else s.duration for s in by_name[name])

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    names = {s.sid: s.name for s in spans}
    solves = [s for s in by_name["solver.solve"] if "error" not in s.attrs]
    n_solve = len(by_name["solver.solve"])
    iterations = attr_sum("solver.solve", "iterations")
    n_energy = len(by_name["density.rho_at_detailed"])
    sample_s = total("montecarlo.sample_matrix")
    return {
        "profiles.load_profile_s": total("profiles.load_profile"),
        "profiles.classify_regime_s": total("profiles.classify_regime"),
        "profiles.expand_profile_s": total("profiles.expand_profile"),
        "profiles.rectangles": attr_sum("profiles.maximal_zero_rectangles", "count"),
        "solver.solve_calls": n_solve,
        "solver.solve_s": total("solver.solve", self_only=True),
        "solver.solve_path_s": total("solver.solve_path", self_only=True),
        "solver.ms_per_point": 1e3 * total("solver.solve") / n_solve if n_solve else 0.0,
        "solver.iterations": iterations,
        "solver.iters_per_point": iterations / n_solve if n_solve else 0.0,
        "solver.cold_starts": sum(1 for s in solves if s.attrs["cold"]),
        "solver.max_residual_ratio": max(
            (s.attrs["residual_ratio"] for s in solves), default=0.0
        ),
        "solver.min_fnorm_margin": min(
            (s.attrs["fnorm_margin"] for s in solves), default=0.0
        ),
        "solver.failures": n_solve - len(solves),
        "asymptotics.fit_exponents_s": total("asymptotics.fit_exponents"),
        "asymptotics.constant_system_s": total("asymptotics.constant_system"),
        "asymptotics.vde_like_reduce_s": total("asymptotics.vde_like_reduce"),
        "asymptotics.uniform_bound_sweep_s": total(
            "asymptotics.uniform_bound_sweep", self_only=True
        ),
        "density.rho_grid_s": total("density.rho_grid", self_only=True),
        "density.rho_at_detailed_s": total("density.rho_at_detailed", self_only=True),
        "density.energies": n_energy,
        "density.solves_per_energy": (
            sum(
                1 for s in by_name["solver.solve"]
                if names.get(s.parent) == "density.rho_at_detailed"
            ) / n_energy
            if n_energy else 0.0
        ),
        "density.divergent_points": attr_sum("density.rho_at_detailed", "divergent"),
        "montecarlo.sample_matrix_s": sample_s,
        "montecarlo.samples": len(by_name["montecarlo.sample_matrix"]),
        "montecarlo.entries_per_s": (
            attr_sum("montecarlo.sample_matrix", "entries") / sample_s
            if sample_s else 0.0
        ),
        "montecarlo.sample_spectrum_s": total("montecarlo.sample_spectrum", self_only=True),
        "montecarlo.predicted_near_zero_mass_s": total(
            "montecarlo.predicted_near_zero_mass", self_only=True
        ),
        "montecarlo.empirical_near_zero_s": total(
            "montecarlo.empirical_near_zero", self_only=True
        ),
        "cli.commands": len(by_name["cli.main"]),
        "cli.self_s": total("cli.main", self_only=True) + total("cli.run", self_only=True),
        "cli.report_bytes": attr_sum("cli.run", "report_bytes"),
    }
