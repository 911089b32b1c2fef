"""Batch command-line front end.

Commands wire a profile document to one analysis each and write a plain
text report whose first two lines record the tool version and a digest of
the full run configuration; identical configurations produce byte
identical files.  Heavy numerical imports happen inside the handlers, so
--help loads no numpy and a caller's OMP_NUM_THREADS reaches the BLAS
thread pools before they initialize.  Each flag parses straight onto the
RunConfig field of the same meaning (its argparse dest), and a flag left
out keeps that field's default, so every default is declared once, in
RunConfig.

Exit codes: 0 success, 1 validation error, 2 solver failure (or a point
whose defect reaches Im z, so that ||F||_2 < 1 cannot be shown), 3
assertion failure (a theory-guaranteed invariant came out false).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import numbers
import sys

from . import __version__

DEFAULT_MC_INNER = 400
# a ray is tens of radii and an energy grid a few hundred energies; the
# cap stops a huge --ppd or lin: count before it allocates
MAX_RADII = 10_000


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    profile_path: str
    output_path: str
    ray: float = math.pi / 2
    r_max: float = 1e-1
    r_min: float = 1e-6
    points_per_decade: int = 8
    eta_schedule: tuple[float, ...] | None = None
    e_grid: str = "default"
    inner_list: tuple[int, ...] = ()
    noise: float = 0.0
    seed: int = 0
    trials: int = 1
    tol: float | None = None
    delta: float = 0.1

    def digest(self) -> str:
        canonical = json.dumps(
            dataclasses.asdict(self), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _row(*cells) -> str:
    """One tab-separated table row: integers verbatim, reals through _fmt."""
    return "\t".join(
        str(c) if isinstance(c, numbers.Integral) else _fmt(float(c)) for c in cells
    )


def _radii(config: RunConfig) -> list[float]:
    r_min, r_max = config.r_min, config.r_max
    if not (math.isfinite(r_max) and 0 < r_min <= r_max):
        raise ValueError(
            f"need finite 0 < rmin <= rmax, got rmin={r_min} rmax={r_max}"
        )
    # bounded before the float product below, which overflows on a huge int
    if not 1 <= config.points_per_decade <= MAX_RADII:
        raise ValueError(f"points per decade must lie in [1, {MAX_RADII}]")
    if r_min == r_max:
        return [r_min]
    import numpy as np

    steps = config.points_per_decade * math.log10(r_max / r_min)
    # count = round(steps) + 1, so this bounds count by MAX_RADII; an
    # overflowed ratio gives inf steps and fails here too
    if not steps < MAX_RADII - 0.5:
        raise ValueError(
            f"the ray would have more than {MAX_RADII} radii "
            f"(ppd={config.points_per_decade}, rmin={r_min}, rmax={r_max})"
        )
    count = max(2, int(round(steps)) + 1)
    return [float(r) for r in np.geomspace(r_max, r_min, count)]


def _solver_options(config: RunConfig):
    """--tol as solver options; None leaves the solver's own default."""
    from .solver import SolverOptions

    return None if config.tol is None else SolverOptions(tol=config.tol)


def _ray_path(config: RunConfig, profile):
    from .solver import solve_path

    return solve_path(profile, config.ray, _radii(config), _solver_options(config))


def _single_inner(config: RunConfig, default):
    """The one --N value that mc and reduce take, or default without one."""
    if len(config.inner_list) > 1:
        raise ValueError(
            f"{config.command} takes a single --N value, got {len(config.inner_list)}"
        )
    return config.inner_list[0] if config.inner_list else default


def _cmd_classify(config: RunConfig, profile) -> list[str]:
    from .profiles import classify_regime

    report = classify_regime(profile)
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True).splitlines()


def _cmd_solve(config: RunConfig, profile) -> list[str]:
    path = _ray_path(config, profile)
    return json.dumps(path[-1].to_json_dict(), sort_keys=True).splitlines()


def _cmd_scan(config: RunConfig, profile) -> list[str]:
    import numpy as np

    from .asymptotics import fit_exponents

    path = _ray_path(config, profile)
    fits = fit_exponents(path)
    lines = [
        "# columns: k r abs_m arg_m measured_exponent predicted_exponent "
        "measured_phase predicted_phase measured_constant predicted_constant"
    ]
    for fit in fits:
        k = fit.component
        for sol in path:
            mk = sol.m[k - 1]
            lines.append(
                _row(
                    k,
                    abs(sol.point.z),
                    np.abs(mk),
                    np.angle(mk),
                    fit.measured_exponent,
                    fit.predicted_exponent,
                    fit.measured_phase,
                    fit.predicted_phase,
                    fit.measured_constant,
                    fit.predicted_constant,
                )
            )
    return lines


def _cmd_constants(config: RunConfig, profile) -> list[str]:
    import numpy as np

    from .asymptotics import (
        constant_system,
        constant_system_residuals,
        predicted_exponent,
        predicted_phase,
    )

    system = constant_system(profile)
    c = np.exp(system.solution)
    n = profile.dim
    lines = [
        f"# condition_number {_fmt(system.condition_number)}",
        f"# relation_residual {_fmt(constant_system_residuals(profile, c))}",
        "# columns: k c_k predicted_exponent predicted_phase",
    ]
    for k in range(1, n + 1):
        lines.append(
            _row(k, c[k - 1], predicted_exponent(k, n), predicted_phase(k, n))
        )
    return lines


def _parse_egrid(spec: str, profile):
    import numpy as np

    from .density import default_energy_grid

    if spec == "default":
        return default_energy_grid(profile)
    if spec.startswith("lin:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise ValueError(f"bad egrid spec {spec!r}, want lin:lo:hi:count")
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        if not 1 <= count <= MAX_RADII:
            raise ValueError(
                f"bad egrid spec {spec!r}, count must lie in [1, {MAX_RADII}]"
            )
        # np.linspace steps by (hi - lo) / (count - 1), which must be finite
        if not math.isfinite(hi - lo):
            raise ValueError(f"bad egrid spec {spec!r}, hi - lo must be finite")
        return np.linspace(lo, hi, count)
    return np.array([float(v) for v in spec.split(",")])


def _cmd_density(config: RunConfig, profile) -> list[str]:
    from .density import (
        DEFAULT_ETA_SCHEDULE,
        DEFAULT_FIT_WINDOW,
        divergence_fit,
        rho_grid,
    )

    schedule = config.eta_schedule or DEFAULT_ETA_SCHEDULE
    grid = _parse_egrid(config.e_grid, profile)
    dp = rho_grid(profile, grid, schedule, _solver_options(config))
    lines = [
        f"# total_mass {_fmt(dp.total_mass)}",
        f"# divergent_points {int(dp.divergent.sum())}",
    ]
    try:
        fit = divergence_fit(dp, DEFAULT_FIT_WINDOW)
        lines.append(f"# divergence_exponent {_fmt(fit.exponent)}")
        lines.append(f"# divergence_constant {_fmt(fit.constant)}")
    except ValueError as exc:
        lines.append(f"# divergence_fit skipped: {exc}")
    lines.append("# columns: E rho eta_used extrapolation_error_estimate")
    eta_used = dp.eta_schedule[-1]
    for e_val, rho, err in zip(dp.energies, dp.rho, dp.error_estimates):
        lines.append(_row(e_val, rho, eta_used, err))
    return lines


def _cmd_mc(config: RunConfig, profile) -> list[str]:
    from .density import DEFAULT_ETA_SCHEDULE
    from .montecarlo import EnsembleSpec, empirical_near_zero

    inner = _single_inner(config, DEFAULT_MC_INNER)
    spec = EnsembleSpec(
        small_profile=profile,
        inner_N=inner,
        trials=config.trials,
        seed=config.seed,
    )
    result = empirical_near_zero(
        spec,
        config.delta,
        eta_schedule=config.eta_schedule or DEFAULT_ETA_SCHEDULE,
    )
    lines = [
        f"# inner_N {inner}",
        f"# trials {config.trials}",
        f"# delta {_fmt(config.delta)}",
        f"# fraction {_fmt(result.fraction)}",
        f"# stderr {_fmt(result.stderr)}",
        f"# prediction {_fmt(result.prediction)}",
        f"# relative_error {_fmt(abs(result.fraction - result.prediction) / result.prediction)}",
        "# columns: trial fraction",
    ]
    for trial, frac in enumerate(result.per_trial):
        lines.append(_row(trial, frac))
    return lines


def _expanded_profile(config: RunConfig, profile):
    from .profiles import expand_profile

    inner = _single_inner(config, None)
    if profile.block_meta is not None:
        if inner is not None or config.noise != 0.0:
            raise ValueError("reduce takes no --N or --noise for a profile whose block "
                             f"metadata (n, N) = {profile.block_meta} fixes them")
        return profile
    if inner is None:
        raise ValueError(
            "reduce needs a profile with block metadata or --N to expand"
        )
    return expand_profile(profile, inner, noise=config.noise, seed=config.seed)


def _cmd_reduce(config: RunConfig, profile) -> list[str]:
    from .asymptotics import vde_like_reduce

    path = _ray_path(config, _expanded_profile(config, profile))
    omega, s_hat, diag = vde_like_reduce(path[-1])
    n = omega.size
    lines = [
        f"# residual {_fmt(diag.residual)}",
        f"# zero_pattern_matches {diag.zero_pattern_matches}",
        f"# abs_s_range {_fmt(diag.abs_s_min)} {_fmt(diag.abs_s_max)}",
        f"# max_abs_arg_s {_fmt(diag.max_abs_arg_s)}",
        f"# abs_omega_range {_fmt(diag.abs_omega_min)} {_fmt(diag.abs_omega_max)}",
        f"# max_abs_arg_omega {_fmt(diag.max_abs_arg_omega)}",
        "# columns: k omega_re omega_im then rows of s_hat (re im pairs)",
    ]
    for k in range(n):
        lines.append(_row(k + 1, omega[k].real, omega[k].imag))
    for k in range(n):
        lines.append(_row(*(part for v in s_hat[k] for part in (v.real, v.imag))))
    return lines


def _cmd_sweep(config: RunConfig, profile) -> list[str]:
    from .asymptotics import uniform_bound_sweep

    if not config.inner_list:
        raise ValueError("sweep needs --N with at least one block size")
    result = uniform_bound_sweep(
        profile,
        config.inner_list,
        noise=config.noise,
        seed=config.seed,
        ray_angle=config.ray,
        radii=_radii(config),
        opts=_solver_options(config),
    )
    lines = [
        f"# spread_factor {_fmt(result.spread_factor)}",
        "# columns: N r min_modulus max_modulus max_phase_deviation",
    ]
    for row in result.rows:
        lines.append(
            _row(
                row.inner,
                row.radius,
                row.min_modulus,
                row.max_modulus,
                row.max_phase_deviation,
            )
        )
    return lines


_HANDLERS = {
    "classify": _cmd_classify,
    "solve": _cmd_solve,
    "scan": _cmd_scan,
    "constants": _cmd_constants,
    "density": _cmd_density,
    "mc": _cmd_mc,
    "reduce": _cmd_reduce,
    "sweep": _cmd_sweep,
}


def run(config: RunConfig) -> None:
    """Execute one command and write its report to the output path."""
    from .profiles import load_profile

    if config.command not in _HANDLERS:
        raise ValueError(f"unknown command {config.command!r}")
    profile = load_profile(config.profile_path)
    body = _HANDLERS[config.command](config, profile)
    lines = [f"# vdelab {__version__}", f"# config {config.digest()}"]
    lines.extend(body)
    with open(config.output_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for solver
    # failures here, so remap argument problems to the validation status.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    # dest names the RunConfig field; SUPPRESS leaves an omitted flag out of
    # the namespace so the field keeps its default
    parser = _Parser(
        prog="vdelab",
        description="Vector Dyson equation laboratory for block-staircase "
        "variance profiles.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--command", required=True, choices=_HANDLERS)
    parser.add_argument(
        "--profile", dest="profile_path", required=True, help="profile JSON path"
    )
    parser.add_argument(
        "--out", dest="output_path", required=True, help="output report path"
    )
    parser.add_argument("--ray", type=float, help="ray angle in (0, pi)")
    parser.add_argument("--rmax", dest="r_max", type=float)
    parser.add_argument("--rmin", dest="r_min", type=float)
    parser.add_argument(
        "--ppd", dest="points_per_decade", type=int, help="radii per decade along the ray"
    )
    parser.add_argument(
        "--eta-schedule",
        type=_float_list,
        help="comma-separated descending eta values, the last three geometric",
    )
    parser.add_argument(
        "--egrid",
        dest="e_grid",
        help='"default", "lin:lo:hi:count", or comma-separated energies',
    )
    parser.add_argument(
        "--N",
        dest="inner_list",
        type=_int_list,
        help="comma-separated inner block sizes (sweep) or one size (mc/reduce)",
    )
    parser.add_argument("--noise", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--tol", type=float, help="relative backward error bound")
    parser.add_argument("--delta", type=float, help="near-zero half-width for mc")
    return parser


def main(argv=None) -> int:
    # flags parse first, so --help and a bad flag load no numerical module
    args = _build_parser().parse_args(argv)
    from .solver import AnomalyError, SolverError

    try:
        run(RunConfig(**vars(args)))
    except SolverError as exc:
        print(f"vdelab: solver failure: {exc}", file=sys.stderr)
        return 2
    except (AnomalyError, AssertionError) as exc:
        print(f"vdelab: invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"vdelab: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
