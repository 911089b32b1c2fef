"""Correctness checks on vdelab reports, with the acceptance criteria's bounds.

Each check reads one report, raises CheckFailure when a bound is missed,
and returns observations (error sizes) for the per-layer metrics.  Bounds
taken from tests/test_acceptance.py apply only where that criterion
applies; elsewhere the same error is observed and reported, not gated.
"""

from __future__ import annotations

import json
import math

from vdelab.profiles import REGIME_CRITICAL, check_assumption_staircase
from vdelab.solver import suggested_tol

EXPONENT_BOUND = 0.01  # criterion 2, all-ones staircases n in 2..5
PHASE_BOUND = 0.02  # criterion 3, same profiles
RELATION_BOUND = 1e-12  # criterion 4
DIVERGENCE_BOUND = 0.03  # criterion 7, all-ones staircases n in 2..3
# No criterion bounds the total mass of staircase densities; the largest
# error seen over random profiles with n <= 7 was 0.0056.
MASS_BOUND = 0.01
SPREAD_BOUND = 4.0  # criterion 9
SWEEP_PHASE_BOUND = 0.05  # criterion 9
REDUCE_ARG_BOUND = 0.05  # criterion 10
MC_RELATIVE_BOUND = 0.15  # criterion 11


class CheckFailure(AssertionError):
    """A report is malformed or misses a bound."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def read_report(path) -> tuple[dict[str, list[str]], list[str]]:
    """Split a report into its '# key value...' header fields and body lines."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(len(lines) >= 2 and lines[0].startswith("# vdelab "), f"{path}: no version line")
    _require(lines[1].startswith("# config "), f"{path}: no config digest")
    meta: dict[str, list[str]] = {}
    body = []
    for line in lines[2:]:
        if line.startswith("# ") and not line.startswith("# columns:"):
            key, *rest = line[2:].split()
            meta[key] = rest
        elif not line.startswith("#"):
            body.append(line)
    return meta, body


def _rows(body: list[str]) -> list[list[float]]:
    return [[float(v) for v in line.split("\t")] for line in body]


def check_classify(path, shuffled) -> dict:
    _, body = read_report(path)
    doc = json.loads("\n".join(body))
    _require(doc["regime"] == REGIME_CRITICAL, f"regime {doc['regime']}")
    perm = doc["staircase_permutation"]
    _require(perm is not None, "no staircase permutation recovered")
    _require(
        check_assumption_staircase(shuffled.permuted(perm))[0],
        f"permutation {perm} does not restore the staircase",
    )
    return {}


def check_constants(path, n: int) -> dict:
    meta, body = read_report(path)
    residual = float(meta["relation_residual"][0])
    _require(residual <= RELATION_BOUND, f"relation residual {residual:.2e}")
    c = [row[1] for row in _rows(body)]
    _require(len(c) == n, f"{len(c)} constants for n={n}")
    _require(all(math.isfinite(v) and v > 0 for v in c), "non-positive constant")
    return {}


def check_solve(path, profile, r_min: float) -> dict:
    _, body = read_report(path)
    doc = json.loads("\n".join(body))
    tol = suggested_tol(profile, r_min)
    _require(math.isclose(math.hypot(*doc["z"]), r_min, rel_tol=1e-9), f"z {doc['z']}")
    _require(doc["residual"] <= tol, f"residual {doc['residual']:.2e} > tol {tol:.2e}")
    _require(0.0 < doc["f_norm"] < 1.0, f"f_norm {doc['f_norm']}")
    _require(all(im > 0 for _, im in doc["m"]), "m left the upper half-plane")
    return {}


def check_scan(path, n: int, gated: bool) -> dict:
    """Criteria 2 and 3 when gated; otherwise only observe the errors."""
    _, body = read_report(path)
    rows = _rows(body)
    _require(rows and len(rows) % n == 0, f"{len(rows)} rows for n={n}")
    for row in rows:
        k = int(row[0])
        _require(
            math.isclose(row[5], 1.0 - 2.0 * k / (n + 1), abs_tol=1e-11),
            f"predicted exponent of m_{k}",
        )
    exp_err = max(abs(row[4] - row[5]) for row in rows)
    phase_err = max(abs(row[6] - row[7]) for row in rows)
    if gated:
        _require(exp_err < EXPONENT_BOUND, f"exponent error {exp_err:.4f}")
        _require(phase_err < PHASE_BOUND, f"phase error {phase_err:.4f}")
    return {"exponent_err": exp_err}


def check_density(path, n: int, gated: bool) -> dict:
    """Total mass always; the divergence exponent (criterion 7) when gated."""
    meta, body = read_report(path)
    mass = float(meta["total_mass"][0])
    _require(abs(mass - 1.0) <= MASS_BOUND, f"total mass {mass:.6f}")
    _require("divergence_exponent" in meta, "divergence fit skipped")
    err = abs(float(meta["divergence_exponent"][0]) + (n - 1) / (n + 1))
    if gated:
        _require(err <= DIVERGENCE_BOUND, f"divergence exponent error {err:.4f}")
    rho = [row[1] for row in _rows(body)]
    _require(rho and all(v >= 0 for v in rho), "negative density")
    return {"exponent_err": err}


def check_reduce(path, tol: float) -> dict:
    """Criterion 10: residual <= 100 tol, exact zero pattern, small phases."""
    meta, _ = read_report(path)
    residual = float(meta["residual"][0])
    _require(residual <= 100.0 * tol, f"residual {residual:.2e} > 100 tol")
    _require(meta["zero_pattern_matches"] == ["True"], "zero pattern broken")
    arg = max(float(meta["max_abs_arg_s"][0]), float(meta["max_abs_arg_omega"][0]))
    _require(arg < REDUCE_ARG_BOUND, f"max |arg| {arg:.3e}")
    return {}


def check_sweep(path, inner: tuple[int, ...]) -> dict:
    """Criterion 9: N-independent modulus spread and phase deviation."""
    meta, body = read_report(path)
    spread = float(meta["spread_factor"][0])
    _require(spread <= SPREAD_BOUND, f"spread factor {spread:.3f}")
    rows = _rows(body)
    _require([int(r[0]) for r in rows] == list(inner), "one row per block size")
    phase = max(r[4] for r in rows)
    _require(phase < SWEEP_PHASE_BOUND, f"phase deviation {phase:.3e}")
    return {}


def check_mc_fraction(fraction: float, prediction: float) -> dict:
    """Criterion 11: empirical near-zero mass within 15% of the prediction."""
    _require(0.0 < fraction < 1.0, f"fraction {fraction}")
    rel = abs(fraction - prediction) / prediction
    _require(rel <= MC_RELATIVE_BOUND, f"relative error {rel:.3f}")
    return {}


def check_mc(path) -> dict:
    meta, _ = read_report(path)
    return check_mc_fraction(float(meta["fraction"][0]), float(meta["prediction"][0]))
