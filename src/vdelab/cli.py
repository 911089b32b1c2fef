"""Batch command-line front end.

Commands wire a profile document to one analysis each and write a plain
text report whose first two lines record the tool version and a digest of
the full run configuration; identical configurations produce byte
identical files.  Heavy numerical imports happen inside the handlers so
the VDELAB_THREADS environment variable can cap the BLAS thread pools
before they initialize.

Exit codes: 0 success, 1 validation error, 2 solver failure, 3 assertion
failure (a theory-guaranteed invariant came out false).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import numbers
import os
import sys

from . import __version__

COMMANDS = (
    "classify",
    "solve",
    "scan",
    "constants",
    "density",
    "mc",
    "reduce",
    "sweep",
)

DEFAULT_MC_INNER = 400


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
    if not 0 < config.r_min <= config.r_max:
        raise ValueError(
            f"need 0 < rmin <= rmax, got rmin={config.r_min} rmax={config.r_max}"
        )
    if config.points_per_decade < 1:
        raise ValueError("points per decade must be at least 1")
    if config.r_min == config.r_max:
        return [config.r_min]
    import numpy as np

    decades = math.log10(config.r_max / config.r_min)
    count = max(2, int(round(config.points_per_decade * decades)) + 1)
    return [float(r) for r in np.geomspace(config.r_max, config.r_min, count)]


def _solver_options(config: RunConfig, profile):
    from .solver import SolverOptions, suggested_tol

    tol = config.tol
    if tol is None:
        tol = suggested_tol(profile, config.r_min)
    return SolverOptions(tol=tol)


def _ray_path(config: RunConfig, profile):
    from .solver import solve_path

    return solve_path(
        profile, config.ray, _radii(config), _solver_options(config, profile)
    )


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
    fits = fit_exponents(path, profile)
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
        f"# condition_number {_fmt(float(np.linalg.cond(system.coefficient_matrix)))}",
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
    opts = None if config.tol is None else _solver_options(config, profile)
    dp = rho_grid(profile, grid, schedule, opts)
    lines = [f"# total_mass {_fmt(dp.total_mass)}"]
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

    # the report's relative error divides by the predicted mass in
    # [-delta, delta], which is 0 at delta = 0
    if not config.delta > 0:
        raise ValueError(f"mc needs delta > 0, got {config.delta}")
    inner = config.inner_list[0] if config.inner_list else DEFAULT_MC_INNER
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

    if profile.block_meta is not None:
        return profile
    if not config.inner_list:
        raise ValueError(
            "reduce needs a profile with block metadata or --N to expand"
        )
    return expand_profile(
        profile, config.inner_list[0], noise=config.noise, seed=config.seed
    )


def _cmd_reduce(config: RunConfig, profile) -> list[str]:
    from .asymptotics import vde_like_reduce

    prof = _expanded_profile(config, profile)
    path = _ray_path(config, prof)
    omega, s_hat, diag = vde_like_reduce(path[-1], prof)
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
    opts = None if config.tol is None else _solver_options(config, profile)
    result = uniform_bound_sweep(
        profile,
        config.inner_list,
        noise=config.noise,
        seed=config.seed,
        ray_angle=config.ray,
        radii=_radii(config),
        opts=opts,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vdelab",
        description="Vector Dyson equation laboratory for block-staircase "
        "variance profiles.",
    )
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--profile", required=True, help="profile JSON path")
    parser.add_argument("--out", required=True, help="output report path")
    parser.add_argument(
        "--ray", type=float, default=math.pi / 2, help="ray angle in (0, pi)"
    )
    parser.add_argument("--rmax", type=float, default=1e-1)
    parser.add_argument("--rmin", type=float, default=1e-6)
    parser.add_argument(
        "--ppd", type=int, default=8, help="radii per decade along the ray"
    )
    parser.add_argument(
        "--eta-schedule",
        default=None,
        help="comma-separated descending eta values",
    )
    parser.add_argument(
        "--egrid",
        default="default",
        help='"default", "lin:lo:hi:count", or comma-separated energies',
    )
    parser.add_argument(
        "--N",
        dest="inner",
        default="",
        help="comma-separated inner block sizes (sweep) or one size (mc/reduce)",
    )
    parser.add_argument("--noise", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument(
        "--tol", type=float, default=None, help="solver tolerance override"
    )
    parser.add_argument(
        "--delta", type=float, default=0.1, help="near-zero half-width for mc"
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    eta = None
    if args.eta_schedule:
        eta = tuple(float(v) for v in args.eta_schedule.split(","))
    inner = ()
    if args.inner:
        inner = tuple(int(v) for v in args.inner.split(","))
    return RunConfig(
        command=args.command,
        profile_path=args.profile,
        output_path=args.out,
        ray=args.ray,
        r_max=args.rmax,
        r_min=args.rmin,
        points_per_decade=args.ppd,
        eta_schedule=eta,
        e_grid=args.egrid,
        inner_list=inner,
        noise=args.noise,
        seed=args.seed,
        trials=args.trials,
        tol=args.tol,
        delta=args.delta,
    )


def _apply_thread_env() -> None:
    value = os.environ.get("VDELAB_THREADS")
    if not value:
        return
    count = str(int(value))
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, count)


def main(argv=None) -> int:
    try:
        _apply_thread_env()
    except ValueError as exc:
        print(f"vdelab: bad VDELAB_THREADS value: {exc}", file=sys.stderr)
        return 1
    from .solver import AnomalyError, SolverError

    try:
        args = _build_parser().parse_args(argv)
        run(_config_from_args(args))
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
