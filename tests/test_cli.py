"""End-to-end CLI tests through real subprocesses.

Byte-level claims (formatting, determinism) need the actual process
boundary, so everything here shells out to the installed module.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import gauge_workbench

CLI = [sys.executable, "-m", "gauge_workbench.cli"]
# The subprocess imports the same copy of the package as this process,
# whether it came from PYTHONPATH, pytest's ``pythonpath`` or an install.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(gauge_workbench.__file__)))

CHECK_ORDER = [
    "master_identity",
    "resonance_pq",
    "ac_stark",
    "two_color",
    "delta_linear",
    "one_photon_ratio",
]


def _subprocess_env(env_extra=None):
    env = os.environ.copy()
    env.pop("GAUGE_WORKBENCH_CONSTANTS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(*args, env_extra=None):
    return subprocess.run(CLI + list(args), capture_output=True,
                          text=True, env=_subprocess_env(env_extra))


def heavy_modules_after(code):
    """The numpy/scipy packages a fresh interpreter holds after running code."""
    probe = ("\nimport sys\nprint(sorted({m.partition('.')[0] for m in sys.modules}"
             " & {'numpy', 'scipy'}), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code + probe], capture_output=True,
                          text=True, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()[-1]


def assert_input_error(proc):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


class TestCompute:
    def test_resonance_q_formatting(self):
        proc = run_cli("compute", "--x", "0.1875", "--quantity", "q")
        assert proc.returncode == 0
        assert proc.stdout == "-7.85365542235e+00 dimensionless\n"

    def test_two_color_value(self):
        proc = run_cli("compute", "--x", "0.35", "--quantity", "two_color_q")
        assert proc.returncode == 0
        assert proc.stdout.startswith("-6.26594736335e+01")

    def test_beta_unit_tag(self):
        proc = run_cli("compute", "--x", "0.1875", "--quantity", "beta")
        assert proc.returncode == 0
        value, unit = proc.stdout.split()
        assert unit == "Hz(W/m^2)^-1"
        assert math.isclose(float(value), 3.68110645721e-05, rel_tol=1e-11)

    def test_delta_value(self):
        proc = run_cli("compute", "--x", "0.25", "--quantity", "delta")
        value = float(proc.stdout.split()[0])
        assert math.isclose(value, -0.06207796158565026, rel_tol=1e-11)

    @pytest.mark.parametrize("x", ["0.5", "0.375", "0", "-0.1"])
    def test_out_of_window_exits_2(self, x):
        proc = run_cli("compute", "--x", x, "--quantity", "q")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error:" in proc.stderr

    def test_t_rounding_to_one_is_computed(self):
        proc = run_cli("compute", "--x", "1e-17", "--quantity", "q")
        assert proc.returncode == 0
        assert proc.stdout.endswith(" dimensionless\n")
        assert "Traceback" not in proc.stderr

    def test_t_rounding_to_one_is_a_pole_for_alternates(self):
        proc = run_cli("compute", "--x", "1e-17", "--quantity", "q",
                       "--formula-variant", "alt-a")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestScan:
    def test_small_window(self, tmp_path):
        out = tmp_path / "scan.csv"
        proc = run_cli("scan", "--x-min", "0.15", "--x-max", "0.22",
                       "--steps", "8", "--out", str(out),
                       "--columns", "q,p,beta")
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,f1,f2,delta,q,p,beta"
        assert len(lines) == 9
        xs = [float(row.split(",")[0]) for row in lines[1:]]
        assert xs == sorted(xs)
        assert math.isclose(xs[0], 0.15, rel_tol=1e-11)
        assert math.isclose(xs[-1], 0.22, rel_tol=1e-11)

    def test_default_columns(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli("scan", "--x-min", "0.1", "--x-max", "0.2", "--steps", "2",
                "--out", str(out))
        assert out.read_text().splitlines()[0] == "x,f1,f2,delta"

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scan", "--x-min", "0.01", "--x-max", "0.37",
                "--steps", "50", "--columns", "q,beta"]
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_difference_column_crosses_zero_once(self, tmp_path):
        out = tmp_path / "window.csv"
        run_cli("scan", "--x-min", "0.01", "--x-max", "0.37",
                "--steps", "200", "--out", str(out))
        rows = [line.split(",") for line in
                out.read_text().splitlines()[1:]]
        deltas = [float(r[3]) for r in rows]
        flips = [i for i in range(len(deltas) - 1)
                 if deltas[i] * deltas[i + 1] < 0.0]
        assert len(flips) == 1
        i = flips[0]
        assert float(rows[i][0]) < 3.0 / 16.0 < float(rows[i + 1][0])

    def test_rejects_unknown_columns(self, tmp_path):
        proc = run_cli("scan", "--x-min", "0.1", "--x-max", "0.2",
                       "--steps", "3", "--out", str(tmp_path / "x.csv"),
                       "--columns", "q,junk")
        assert proc.returncode == 2

    def test_rejects_single_step(self, tmp_path):
        out = tmp_path / "never.csv"
        proc = run_cli("scan", "--x-min", "0.1", "--x-max", "0.2",
                       "--steps", "1", "--out", str(out))
        assert proc.returncode == 2
        assert not out.exists()

    @pytest.mark.parametrize("steps", [str(10**6 + 1), str(10**20)])
    def test_rejects_steps_above_the_cap(self, tmp_path, steps):
        # the cap is checked before any row is built, so this returns at once
        out = tmp_path / "never.csv"
        proc = run_cli("scan", "--x-min", "0.1", "--x-max", "0.2",
                       "--steps", steps, "--out", str(out))
        assert_input_error(proc)
        assert not out.exists()

    def test_rejects_inverted_window(self, tmp_path):
        proc = run_cli("scan", "--x-min", "0.2", "--x-max", "0.1",
                       "--steps", "5", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2

    def test_unwritable_path_exits_3(self):
        proc = run_cli("scan", "--x-min", "0.1", "--x-max", "0.2",
                       "--steps", "3", "--out", "/nonexistent-dir/out.csv")
        assert proc.returncode == 3


class TestVerify:
    def test_strict_profile_passes(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--profile", "strict", "--out", str(out))
        assert proc.returncode == 0
        assert "PASS master_identity" in proc.stdout
        assert proc.stdout.rstrip().endswith("overall: PASS")

        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "1.0.0"
        assert doc["constants_provenance"] == "CODATA-2018"
        assert doc["overall_pass"] is True
        assert [c["name"] for c in doc["checks"]] == CHECK_ORDER
        assert all(c["passed"] for c in doc["checks"])
        assert all(c["max_residual"] <= c["tolerance"]
                   for c in doc["checks"])
        assert [c["name"] for c in doc["constants"]] == [
            "resonance_q", "two_color_q", "beta_resonance", "beta_slope"]
        assert doc["generated_inputs"]["profile"] == "strict"

    def test_oracle_profile_passes(self):
        proc = run_cli("verify", "--profile", "oracle")
        assert proc.returncode == 0

    def test_report_bytes_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("verify", "--out", str(a))
        run_cli("verify", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_transcription_fails(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--formula-variant", "alt-a",
                       "--out", str(out))
        assert proc.returncode == 1
        assert "FAIL master_identity" in proc.stdout
        doc = json.loads(out.read_text())
        assert doc["overall_pass"] is False
        assert doc["formula_variant"] == "alt-a"

    def test_constants_file_changes_provenance_and_outcome(self, tmp_path):
        consts = tmp_path / "alt.json"
        consts.write_text(json.dumps({"alpha": 7.3e-3}))
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--constants-file", str(consts),
                       "--out", str(out))
        # a 0.04 percent alpha shift moves beta by ~0.16 percent: detectable
        assert proc.returncode == 1
        doc = json.loads(out.read_text())
        assert doc["constants_provenance"] == "file:alt.json"
        failed = {c["name"] for c in doc["checks"] if not c["passed"]}
        assert failed == set()  # identity checks are constants-independent
        assert doc["overall_pass"] is False

    def test_env_var_constants_fallback(self, tmp_path):
        consts = tmp_path / "env.json"
        consts.write_text(json.dumps({"alpha": 7.3e-3}))
        proc = run_cli("compute", "--x", "0.1875", "--quantity", "beta",
                       env_extra={"GAUGE_WORKBENCH_CONSTANTS": str(consts)})
        shifted = float(proc.stdout.split()[0])
        assert not math.isclose(shifted, 3.68110645721e-05, rel_tol=1e-4)

    def test_grid_override_is_validated(self):
        proc = run_cli("verify", "--grid-points", "100")
        assert proc.returncode == 2

    @pytest.mark.parametrize("r_max", ["nan", "inf", "1e300"])
    def test_unusable_r_max_is_an_input_error(self, r_max):
        # exit 1 would claim a verification failure; the grid never existed
        assert_input_error(run_cli("verify", "--r-max", r_max))


class TestConstantsFile:
    @pytest.mark.parametrize("content", [
        b'{"alpha": ',
        b'{"alpha": "x"}',
        b'{"alpha": true}',
        b'{"alpha": Infinity}',
        b'\xff\xfe',
    ], ids=["invalid-json", "string", "bool", "infinite", "not-utf8"])
    def test_malformed_file_is_an_input_error(self, tmp_path, content):
        consts = tmp_path / "bad.json"
        consts.write_bytes(content)
        proc = run_cli("compute", "--x", "0.1875", "--quantity", "beta",
                       "--constants-file", str(consts))
        assert_input_error(proc)
        assert str(consts) in proc.stderr


class TestImportCost:
    """compute and scan are closed-form only and must run on the stdlib."""

    @pytest.mark.parametrize("argv", [
        ["compute", "--x", "0.1875", "--quantity", "beta"],
        ["scan", "--x-min", "0.1", "--x-max", "0.3", "--steps", "5",
         "--columns", "q,p,beta"],
    ], ids=["compute", "scan"])
    def test_closed_form_commands_load_no_numpy_or_scipy(self, tmp_path, argv):
        if argv[0] == "scan":
            argv = argv + ["--out", str(tmp_path / "scan.csv")]
        code = f"from gauge_workbench.cli import main\nassert main({argv!r}) == 0"
        assert heavy_modules_after(code) == "[]"

    def test_package_import_and_all_names_load_no_numpy_or_scipy(self):
        # the star import fails if a name in __all__ does not resolve
        assert heavy_modules_after("from gauge_workbench import *") == "[]"

    def test_oracle_import_is_detected(self):
        # negative control: the probe does see both once the oracle loads
        assert heavy_modules_after("import gauge_workbench.oracle") == "['numpy', 'scipy']"
