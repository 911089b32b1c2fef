"""Record of the code and machine a result was measured on."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

_OPENBLAS_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads")
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config64_", "openblas_get_config")


def _first_symbol(lib, names):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def openblas_pools() -> list[dict]:
    """Thread count and build string of each OpenBLAS bundled with numpy or scipy."""
    import numpy
    import scipy

    pools = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            threads = _first_symbol(lib, _OPENBLAS_SYMBOLS)
            config = _first_symbol(lib, _CONFIG_SYMBOLS)
            if threads is None:
                continue
            threads.restype = ctypes.c_int
            if config is not None:
                config.restype = ctypes.c_char_p
            pools.append({
                "package": package.__name__,
                "threads": int(threads()),
                "config": config().decode() if config is not None else "unknown",
            })
    return pools


def _cpu() -> dict:
    wanted = {"Model name": "cpu_model", "L2 cache": "l2_cache", "L3 cache": "l3_cache"}
    out = dict.fromkeys(wanted.values(), "unknown")
    try:
        text = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=30,
            env={**os.environ, "LC_ALL": "C"},
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return out
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in wanted:
            out[wanted[key.strip()]] = value.strip()
    return out


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest(src: Path) -> str:
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    import numpy
    import scipy

    pools = openblas_pools()
    return {
        "commit": _commit(root),
        "source_sha256": source_digest(root / "src" / "vdelab"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": sorted({p["config"] for p in pools}),
        "blas_threads": max((p["threads"] for p in pools), default=None),
        "nproc": len(os.sched_getaffinity(0)),
        **_cpu(),
    }
