"""Command-line interface: reports, headers, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from vdelab import cli

STAIR2 = '{"matrix": [[1.0, 1.0], [1.0, 0.0]]}'
ASYM = '{"matrix": [[4.0, 1.0], [1.0, 0.0]]}'
ONE = '{"matrix": [[1.0]]}'
STAIR3 = '{"matrix": [[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]]}'
# a zero 2 x 2 block caps the rank at 2: an atom of mass 1/3 at 0, and
# m_2 = m_3 grow like 1/|z|
RANK2 = '{"matrix": [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]}'
# expand_profile(staircase(2), 2) written out, with block metadata
BLOCK = (
    '{"matrix": [[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5],'
    ' [0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]], "n": 2, "N": 2}'
)

HEADER_RE = re.compile(r"^# vdelab \d+\.\d+\.\d+$")
CONFIG_RE = re.compile(r"^# config [0-9a-f]{64}$")


def run_cli(args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "vdelab.cli", *args], capture_output=True, text=True,
        timeout=timeout,
    )


def write_profile(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_report(path):
    lines = path.read_text().splitlines()
    assert HEADER_RE.match(lines[0]), lines[0]
    assert CONFIG_RE.match(lines[1]), lines[1]
    return lines


def report_headers(lines):
    """The report's "# key value" lines as a dict of key to value."""
    return dict(line[2:].split(" ", 1) for line in lines if line.startswith("# "))


def test_classify_command(tmp_path):
    # the second profile is the 20x20 staircase with every free entry zero,
    # as given: only its two anti-diagonals are positive, and it has the
    # most maximal zero rectangles of any staircase measured; process start
    # included, it must be classified within 30 s
    s = np.add.outer(range(20), range(20))
    sparse20 = json.dumps({"matrix": ((s == 18) | (s == 19)).astype(int).tolist()})
    for text, dim in ((STAIR2, 2), (sparse20, 20)):
        prof = write_profile(tmp_path, "p.json", text)
        out = tmp_path / "report.txt"
        proc = run_cli(["--command", "classify", "--profile", prof, "--out", str(out)],
                       timeout=30)
        assert proc.returncode == 0, proc.stderr
        lines = read_report(out)
        doc = json.loads("\n".join(lines[2:]))
        assert doc["regime"] == "critical_staircase"
        assert doc["staircase_permutation"] == list(range(dim))


def test_solve_command_single_point(tmp_path):
    prof = write_profile(tmp_path, "p.json", STAIR2)
    out = tmp_path / "solve.txt"
    proc = run_cli(
        [
            "--command", "solve", "--profile", prof, "--out", str(out),
            "--rmax", "1e-2", "--rmin", "1e-2",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    lines = read_report(out)
    doc = json.loads("\n".join(lines[2:]))
    assert doc["z"] == [0.0, 1e-2]  # default ray snaps onto the imaginary axis
    assert doc["residual"] <= 1e-12
    assert len(doc["m"]) == 2


def test_solve_command_far_field(tmp_path):
    # far out 1/m ~ -z cancels against z, where an absolute 1e-12 on the
    # defect stalls; the relative backward error meets the default
    prof = write_profile(tmp_path, "p.json", STAIR2)
    out = tmp_path / "solve.txt"
    proc = run_cli(
        [
            "--command", "solve", "--profile", prof, "--out", str(out),
            "--rmax", "1e6", "--rmin", "1e5",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads("\n".join(read_report(out)[2:]))
    assert doc["z"] == [0.0, 1e5]
    assert doc["residual"] <= 1e-14


def test_rank_deficient_profile_solves_and_has_no_constants(tmp_path):
    # the default ray's last point, 1e-6 i, stalled under an absolute
    # defect tolerance modelled on the critical growth
    prof = write_profile(tmp_path, "p.json", RANK2)
    out = tmp_path / "solve.txt"
    proc = run_cli(["--command", "solve", "--profile", prof, "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads("\n".join(read_report(out)[2:]))
    assert doc["z"] == [0.0, 1e-6] and doc["residual"] <= 1e-14
    atom = 1e-6 * np.mean([im for _, im in doc["m"]])
    assert atom == pytest.approx(1.0 / 3.0, abs=1e-6)
    # scan fits the staircase constants, which this profile lacks
    proc = run_cli(["--command", "scan", "--profile", prof,
                    "--out", str(tmp_path / "scan.txt")])
    assert proc.returncode == 1
    assert "need a staircase profile" in proc.stderr


def test_scan_command_table(tmp_path):
    prof = write_profile(tmp_path, "p.json", STAIR2)
    out = tmp_path / "scan.txt"
    proc = run_cli(
        [
            "--command", "scan", "--profile", prof, "--out", str(out),
            "--rmin", "1e-5", "--ppd", "4",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    lines = read_report(out)
    assert lines[2].startswith("# columns: k r abs_m")
    data = lines[3:]
    assert len(data) == 2 * 17  # dim * (4 ppd over 4 decades + 1)
    assert all(len(row.split("\t")) == 10 for row in data)


def test_constants_command(tmp_path):
    prof = write_profile(tmp_path, "p.json", ASYM)
    out = tmp_path / "const.txt"
    proc = run_cli(["--command", "constants", "--profile", prof, "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    lines = read_report(out)
    assert lines[2].startswith("# condition_number")
    residual = float(lines[3].split()[-1])
    assert residual <= 1e-12
    rows = [line.split("\t") for line in lines[5:]]
    assert float(rows[0][1]) == pytest.approx(4.0 ** (-1 / 3), rel=1e-10)
    assert float(rows[1][1]) == pytest.approx(4.0 ** (1 / 3), rel=1e-10)


def test_density_command_custom_grid(tmp_path):
    prof = write_profile(tmp_path, "p.json", ONE)
    out = tmp_path / "density.txt"
    proc = run_cli(
        [
            "--command", "density", "--profile", prof, "--out", str(out),
            "--egrid", "0.5,1.0", "--eta-schedule", "1e-2,1e-3,1e-4",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    lines = read_report(out)
    assert lines[2].startswith("# total_mass")
    assert lines[3] == "# divergent_points 0"
    assert any(line.startswith("# divergence_fit skipped:") for line in lines)
    data = [line for line in lines if not line.startswith("#")]
    assert len(data) == 2
    rho_half = float(data[0].split("\t")[1])
    assert rho_half == pytest.approx(0.308202, abs=1e-3)  # semicircle at 0.5


def test_mc_command(tmp_path):
    prof = write_profile(tmp_path, "p.json", ONE)
    out = tmp_path / "mc.txt"
    proc = run_cli(
        [
            "--command", "mc", "--profile", prof, "--out", str(out),
            "--N", "50", "--trials", "2", "--delta", "1.0",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    lines = read_report(out)
    headers = {line.split()[1] for line in lines if line.startswith("#")}
    assert {"inner_N", "trials", "delta", "fraction", "stderr",
            "prediction", "prediction_error", "relative_error"} <= headers
    data = [line for line in lines if not line.startswith("#")]
    assert len(data) == 2  # one row per trial


def test_reduce_command_with_expansion(tmp_path):
    prof = write_profile(tmp_path, "p.json", STAIR2)
    out = tmp_path / "reduce.txt"
    proc = run_cli(
        [
            "--command", "reduce", "--profile", prof, "--out", str(out),
            "--N", "3", "--noise", "0.2", "--seed", "1",
            "--rmin", "1e-4", "--ppd", "4",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    lines = read_report(out)
    assert lines[2].startswith("# residual")
    assert "# zero_pattern_matches True" in lines
    # stair3 at N = 64 (dim 192) runs the Krylov path, GCR with its decade
    # batches; at N = 256 (dim 768) the products by column runs round
    # differently from one GEMM.  Both must reach a residual of at most
    # 1e-12, 100 times the solver's tol, and an exact zero pattern
    stair3 = write_profile(tmp_path, "stair3.json", STAIR3)
    for inner in ("64", "256"):
        proc = run_cli(["--command", "reduce", "--profile", stair3, "--out", str(out),
                        "--N", inner, "--noise", "0.5", "--rmin", "1e-5"])
        assert proc.returncode == 0, proc.stderr
        head = report_headers(read_report(out))
        assert float(head["residual"]) <= 1e-12, inner
        assert head["zero_pattern_matches"] == "True", inner


def test_reduce_command_block_profile(tmp_path):
    prof = write_profile(tmp_path, "p.json", BLOCK)
    out = tmp_path / "reduce.txt"
    proc = run_cli(
        [
            "--command", "reduce", "--profile", prof, "--out", str(out),
            "--rmin", "1e-4", "--ppd", "4",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    # the block metadata fixes N and the noise, so the flags would be ignored
    for extra in (["--N", "64"], ["--noise", "0.9"], ["--N", "64", "--noise", "0.9"]):
        proc = run_cli(
            [
                "--command", "reduce", "--profile", prof, "--out", str(out),
                "--rmin", "1e-4", "--ppd", "4", "--seed", "5", *extra,
            ]
        )
        assert proc.returncode == 1
        assert "block metadata" in proc.stderr and "Traceback" not in proc.stderr


def test_sweep_command(tmp_path):
    prof = write_profile(tmp_path, "p.json", STAIR2)
    out = tmp_path / "sweep.txt"
    proc = run_cli(
        [
            "--command", "sweep", "--profile", prof, "--out", str(out),
            "--N", "2,3", "--noise", "0.3", "--rmin", "1e-3", "--ppd", "3",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    lines = read_report(out)
    assert lines[2].startswith("# spread_factor")
    data = [line for line in lines if not line.startswith("#")]
    assert len(data) == 2


def test_reruns_are_byte_identical(tmp_path):
    # identical invocations, same output path: read bytes between the runs
    prof = write_profile(tmp_path, "p.json", STAIR2)
    out = tmp_path / "a.txt"
    args = ["--command", "scan", "--profile", prof, "--out", str(out),
            "--rmin", "1e-5", "--ppd", "4"]
    assert run_cli(args).returncode == 0
    first = out.read_bytes()
    assert run_cli(args).returncode == 0
    assert out.read_bytes() == first

    one = write_profile(tmp_path, "one.json", ONE)
    mc_out = tmp_path / "m.txt"
    args = [
        "--command", "mc", "--profile", one, "--out", str(mc_out),
        "--N", "40", "--trials", "2", "--delta", "1.0",
    ]
    assert run_cli(args).returncode == 0
    first = mc_out.read_bytes()
    assert run_cli(args).returncode == 0
    assert mc_out.read_bytes() == first

    # mc on the 3x3 staircase, whose count factorizes the complement of its
    # zero block: the reruns match, config digest included, and the arc
    # quadrature's error estimate stays at most 1e-12
    stair3 = write_profile(tmp_path, "stair3.json", STAIR3)
    args = ["--command", "mc", "--profile", stair3, "--out", str(mc_out),
            "--N", "16", "--trials", "2", "--seed", "7"]
    assert run_cli(args).returncode == 0
    first = mc_out.read_bytes()
    assert run_cli(args).returncode == 0
    assert mc_out.read_bytes() == first
    assert float(report_headers(read_report(mc_out))["prediction_error"]) <= 1e-12


def test_config_digest_tracks_arguments(tmp_path):
    prof = write_profile(tmp_path, "p.json", ONE)
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    base = ["--command", "classify", "--profile", prof]
    assert run_cli([*base, "--out", str(out1)]).returncode == 0
    assert run_cli([*base, "--out", str(out2), "--seed", "9"]).returncode == 0
    l1, l2 = read_report(out1), read_report(out2)
    assert l1[1] != l2[1]  # config digests differ
    assert l1[2:] == l2[2:]  # classify output does not use the seed


def test_validation_failures_exit_one(tmp_path):
    out = str(tmp_path / "o.txt")
    good = write_profile(tmp_path, "good.json", STAIR2)
    bad = write_profile(tmp_path, "bad.json", "{not json")
    stair3 = write_profile(tmp_path, "stair3.json", STAIR3)

    def fails_cleanly(args):
        # an uncaught exception also exits 1, so rule out a traceback
        proc = run_cli(args)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "vdelab: " in proc.stderr
        return proc

    fails_cleanly(["--command", "classify", "--profile",
                   str(tmp_path / "nope.json"), "--out", out])
    fails_cleanly(["--command", "classify", "--profile", bad, "--out", out])
    fails_cleanly(["--command", "solve", "--profile", good, "--out", out,
                   "--rmin", "0"])
    fails_cleanly(["--command", "solve", "--profile", good, "--out", out,
                   "--rmin", "1e-1", "--rmax", "1e-3"])
    fails_cleanly(["--command", "sweep", "--profile", good, "--out", out])
    fails_cleanly(["--command", "bogus", "--profile", good, "--out", out])
    fails_cleanly(["--command", "density", "--profile", good, "--out", out,
                   "--egrid", "lin:1:2"])
    # hi - lo overflows to inf: rejected before np.linspace warns
    span = fails_cleanly(["--command", "density", "--profile", good, "--out", out,
                          "--egrid", "lin:-1e308:1e308:3"])
    assert "RuntimeWarning" not in span.stderr
    # an infinite eta is a bad schedule, not a solver failure
    for tol in ([], ["--tol", "1e-10"]):
        inf_eta = fails_cleanly(["--command", "density", "--profile", stair3,
                                 "--out", out, "--eta-schedule", "inf,1,0.1,0.01",
                                 "--egrid", "0.1,0.2", *tol])
        assert "eta schedule" in inf_eta.stderr
    for delta in ("0", "nan", "-1"):
        fails_cleanly(["--command", "mc", "--profile", good, "--out", out,
                       "--N", "4", "--delta", delta])
    # delta outside the spectrum: refused before numpy sees inf - inf
    for delta in ("inf", "1e100"):
        wide = fails_cleanly(["--command", "mc", "--profile", stair3, "--out", out,
                              "--N", "4", "--delta", delta])
        assert "RuntimeWarning" not in wide.stderr
        assert "support bound" in wide.stderr
    # the 20x20 identity has 2**20 - 2 maximal zero rectangles, over the cap
    eye = write_profile(tmp_path, "eye20.json",
                        json.dumps({"matrix": np.eye(20).tolist()}))
    many = fails_cleanly(["--command", "classify", "--profile", eye, "--out", out])
    assert "RuntimeWarning" not in many.stderr
    assert "maximal zero rectangles" in many.stderr
    fails_cleanly(["--command", "scan", "--profile", good, "--out", out,
                   "--rmax", "inf"])
    # an infinite tolerance would count every start as converged
    fails_cleanly(["--command", "solve", "--profile", good, "--out", out,
                   "--tol", "inf"])
    fails_cleanly(["--command", "scan", "--profile", good, "--out", out,
                   "--ppd", "100000000"])
    # too large for a float: must not overflow inside the radii product
    fails_cleanly(["--command", "scan", "--profile", good, "--out", out,
                   "--ppd", "1" + "0" * 400])
    for count in ("0", "99999999"):
        fails_cleanly(["--command", "density", "--profile", good, "--out", out,
                       "--egrid", f"lin:0.1:1:{count}"])
    # n*N = 2e6 is far above the dimension cap; rejected before expanding,
    # in sweep after N = 4 has run
    fails_cleanly(["--command", "reduce", "--profile", good, "--out", out,
                   "--N", "1000000"])
    fails_cleanly(["--command", "sweep", "--profile", good, "--out", out,
                   "--N", "4,1000000"])
    fails_cleanly(["--command", "mc", "--profile", good, "--out", out,
                   "--N", "4,8"])
    # d = 3*2000 = 6000: EnsembleSpec rejects it before any matrix exists
    fails_cleanly(["--command", "mc", "--profile", stair3, "--out", out,
                   "--N", "2000"])
    fails_cleanly(["--command", "mc", "--profile", good, "--out", out,
                   "--N", ""])
    fails_cleanly(["--command", "density", "--profile", good, "--out", out,
                   "--eta-schedule", ""])
    tiny = fails_cleanly(["--command", "mc", "--profile", good, "--out", out,
                          "--N", "4", "--delta", "1e-300"])
    assert tiny.stderr.startswith("vdelab: ") and "floor" in tiny.stderr
    # the cap keeps empirical_near_zero from reserving a huge trial array
    fails_cleanly(["--command", "mc", "--profile", good, "--out", out,
                   "--N", "4", "--trials", "100000000"])
    for seed in ("-1", "18446744073709551616"):
        fails_cleanly(["--command", "mc", "--profile", good, "--out", out,
                       "--N", "4", "--seed", seed])
    for i, doc in enumerate((
        '{"matrix": [[1.0]], "n": null, "N": 1}',
        '{"matrix": [[1.0]], "n": [1], "N": 1}',
        '{"matrix": [[1, 1], [1, 1]], "n": 2.9, "N": 1.2}',
        '{"matrix": [[true]]}',
        '{"matrix": [["1"]]}',
    )):
        loose = write_profile(tmp_path, f"loose{i}.json", doc)
        fails_cleanly(["--command", "classify", "--profile", loose, "--out", out])


def test_solver_failure_exits_two(tmp_path):
    prof = write_profile(tmp_path, "p.json", STAIR2)
    out = str(tmp_path / "o.txt")
    # an off-axis point cannot reach 1e-30, so the residual stalls: 50
    # iterations without a new best
    proc = run_cli(
        [
            "--command", "solve", "--profile", prof, "--out", out,
            "--ray", "0.588", "--rmax", "0.3606", "--rmin", "0.3606",
            "--tol", "1e-30",
        ]
    )
    assert proc.returncode == 2
    assert "solver failure" in proc.stderr
    # a density failure names the point, energy included
    proc = run_cli(
        ["--command", "density", "--profile", prof, "--out", out,
         "--egrid=-0.3,0.3", "--tol", "1e-18"]
    )
    assert proc.returncode == 2
    assert "solver failure" in proc.stderr and "at z = (" in proc.stderr


def test_invariant_violations_exit_three(tmp_path, monkeypatch):
    from vdelab.solver import AnomalyError

    prof = write_profile(tmp_path, "p.json", STAIR2)
    out = str(tmp_path / "o.txt")

    def boom(config, profile):
        raise AnomalyError("synthetic")

    monkeypatch.setitem(cli._HANDLERS, "classify", boom)
    rc = cli.main(["--command", "classify", "--profile", prof, "--out", out])
    assert rc == 3

    def assert_boom(config, profile):
        raise AssertionError("synthetic")

    monkeypatch.setitem(cli._HANDLERS, "classify", assert_boom)
    rc = cli.main(["--command", "classify", "--profile", prof, "--out", out])
    assert rc == 3


def test_main_in_process_happy_path(tmp_path):
    prof = write_profile(tmp_path, "p.json", ONE)
    out = tmp_path / "o.txt"
    rc = cli.main(["--command", "classify", "--profile", prof, "--out", str(out)])
    assert rc == 0
    assert out.exists()


# run in a fresh interpreter: import the numerical modules, run every command
# but mc, whose count needs scipy's LAPACK, and print the scipy modules loaded
SCIPY_FREE = """
import sys
from vdelab import asymptotics, cli, density, montecarlo
prof, out = sys.argv[1], sys.argv[2]
base = ["--profile", prof, "--out", out, "--rmin", "1e-5", "--ppd", "2"]
for argv in (
    ["--command", "classify"],
    ["--command", "constants"],
    ["--command", "solve"],
    ["--command", "scan"],
    ["--command", "density", "--egrid", "0.01,0.5"],
    ["--command", "reduce", "--N", "2"],
    ["--command", "sweep", "--N", "2,3", "--noise", "0.3"],
):
    assert cli.main(argv + base) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

HELP_WITHOUT_NUMPY = """
import sys
from vdelab import cli
try:
    cli.main(["--help"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
print("numpy" in sys.modules)
"""


def run_fresh(script, *args):
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env,
    )


def test_commands_other_than_mc_load_no_scipy(tmp_path):
    prof = write_profile(tmp_path, "p.json", STAIR3)
    proc = run_fresh(SCIPY_FREE, prof, str(tmp_path / "o.txt"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_help_loads_no_numpy():
    proc = run_fresh(HELP_WITHOUT_NUMPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_run_config_digest_is_stable():
    a = cli.RunConfig(command="solve", profile_path="p", output_path="o")
    b = cli.RunConfig(command="solve", profile_path="p", output_path="o")
    assert a.digest() == b.digest()
    c = cli.RunConfig(command="solve", profile_path="p", output_path="o", seed=1)
    assert c.digest() != a.digest()


def test_parser_leaves_defaults_to_run_config():
    argv = ["--command", "solve", "--profile", "p", "--out", "o"]
    parsed = cli.RunConfig(**vars(cli._build_parser().parse_args(argv)))
    plain = cli.RunConfig(command="solve", profile_path="p", output_path="o")
    assert parsed == plain
    assert parsed.digest() == plain.digest()


def test_parser_sets_every_field():
    argv = [
        "--command", "sweep", "--profile", "p", "--out", "o",
        "--ray", "1.5", "--rmax", "0.2", "--rmin", "1e-4", "--ppd", "3",
        "--eta-schedule", "1e-2,1e-3", "--egrid", "lin:0.1:1:4",
        "--N", "4,8", "--noise", "0.5", "--seed", "7", "--trials", "3",
        "--tol", "1e-10", "--delta", "0.2",
    ]
    config = cli.RunConfig(**vars(cli._build_parser().parse_args(argv)))
    assert config == cli.RunConfig(
        command="sweep",
        profile_path="p",
        output_path="o",
        ray=1.5,
        r_max=0.2,
        r_min=1e-4,
        points_per_decade=3,
        eta_schedule=(1e-2, 1e-3),
        e_grid="lin:0.1:1:4",
        inner_list=(4, 8),
        noise=0.5,
        seed=7,
        trials=3,
        tol=1e-10,
        delta=0.2,
    )
