"""End-to-end CLI tests through real subprocesses.

Byte-level claims (formatting, determinism) need the actual process
boundary, so everything here shells out to the installed module.
"""

import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from strict_golden import (
    COMPUTE_LINES,
    EXPECTED_SCAN_SHA256,
    SCAN_ARGS,
    STRICT_REPORT_LINES,
    expected_run,
    file_sha256,
)

import gauge_workbench

CLI = [sys.executable, "-m", "gauge_workbench.cli"]
# The subprocess imports the same copy of the package as this process,
# whether it came from PYTHONPATH, pytest's ``pythonpath`` or an install.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(gauge_workbench.__file__)))
README = Path(__file__).resolve().parent.parent / "README.md"

CHECK_ORDER = [
    "master_identity",
    "resonance_pq",
    "ac_stark",
    "two_color",
    "delta_linear",
    "one_photon_ratio",
]
# the grid and basis fields of a report's generated_inputs
INPUT_FIELDS = ("grid_points", "r_max", "r_min", "basis_size", "basis_lambda")


def _subprocess_env(env_extra=None):
    env = os.environ.copy()
    env.pop("GAUGE_WORKBENCH_CONSTANTS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(*args, env_extra=None, umask=-1):
    return subprocess.run(CLI + list(args), capture_output=True,
                          text=True, env=_subprocess_env(env_extra), umask=umask)


def heavy_modules_after(code, packages=("numpy", "scipy")):
    """The packages, numpy and scipy by default, that a fresh interpreter
    holds after running code."""
    probe = ("\nimport sys\nprint(sorted({m.partition('.')[0] for m in sys.modules}"
             f" & {set(packages)!r}), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code + probe], capture_output=True,
                          text=True, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()[-1]


def assert_input_error(proc):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def assert_names_requested_path(proc, path):
    """The one error line names the --out path, not the temp file beside it."""
    assert proc.stderr.startswith("error:")
    assert path in proc.stderr
    assert ".gw-" not in proc.stderr


# the umask of the runs that check an --out file's mode: a new file gets
# 0o664, which is neither a temp file's 0o600 nor the usual 0o644
OUT_UMASK = 0o002
SMALL_SCAN = ("scan", "--x-min", "0.1", "--x-max", "0.3", "--steps", "5")


def mode_after_run(argv, out):
    """The permission bits of out after a successful run of argv --out out
    under OUT_UMASK; the run leaves out alone in its directory."""
    proc = run_cli(*argv, "--out", str(out), umask=OUT_UMASK)
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(out.parent) == [out.name]
    return out.stat().st_mode & 0o7777


def existing_file(path, mode):
    path.write_text("old\n")
    path.chmod(mode)
    return path


def target_after_run_through_link(argv, directory, target_exists):
    """(target, its mode) after a successful run of argv --out link under
    OUT_UMASK, where link is a symlink to target: an existing 0o640 file,
    or a dangling name.  The link stays a link to the same target, and the
    run leaves nothing else in the directory."""
    target, link = directory / "target.out", directory / "link.out"
    if target_exists:
        existing_file(target, 0o640)
    link.symlink_to(target)
    proc = run_cli(*argv, "--out", str(link), umask=OUT_UMASK)
    assert proc.returncode == 0, proc.stderr
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert sorted(os.listdir(directory)) == ["link.out", "target.out"]
    return target, target.stat().st_mode & 0o7777


def readme_compute_examples():
    """(argv, stdout) of each ``$ gauge-workbench compute`` line of README.md,
    with the line under it as its output."""
    lines = README.read_text(encoding="utf-8").splitlines()
    return [(shlex.split(command)[2:], output + "\n")
            for command, output in zip(lines, lines[1:])
            if command.startswith("$ gauge-workbench compute ")]


def readme_python_blocks():
    """The body of each ```python block of README.md, in order."""
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE)


class TestCompute:
    def test_delta_value(self):
        proc = run_cli("compute", "--x", "0.25", "--quantity", "delta")
        value = float(proc.stdout.split()[0])
        assert math.isclose(value, -0.06207796158565026, rel_tol=1e-11)

    def test_readme_examples_are_the_output(self):
        # byte for byte and exit 0; README shows q, beta and two_color_q
        examples = readme_compute_examples()
        assert len(examples) == 3
        runs = [(argv, run_cli(*argv)) for argv, _ in examples]
        assert [(argv, proc.returncode, proc.stdout) for argv, proc in runs] == [
            (argv, 0, stdout) for argv, stdout in examples]

    @pytest.mark.usefixtures("oracle_extra")
    def test_readme_library_blocks_run(self):
        # in one fresh interpreter and one namespace, as a reader pastes them:
        # a later block reads the names an earlier one imported
        blocks = readme_python_blocks()
        assert len(blocks) == 2
        proc = subprocess.run([sys.executable, "-c", "\n".join(blocks)], capture_output=True,
                              text=True, env=_subprocess_env())
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("quantity,x", sorted(COMPUTE_LINES))
    def test_gauge_comparison_lines_are_golden(self, quantity, x):
        proc = run_cli("compute", "--x", x, "--quantity", quantity)
        assert (proc.returncode, proc.stdout) == (0, COMPUTE_LINES[quantity, x] + "\n")

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

    def test_small_x_is_computed_with_warnings_as_errors(self):
        proc = subprocess.run([sys.executable, "-W", "error"] + CLI[1:]
                              + ["compute", "--x", "1e-5", "--quantity", "q"],
                              capture_output=True, text=True, env=_subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "-3.47647372967e+00 dimensionless\n"
        assert proc.stderr == ""

    def test_two_color_partner_rounding_onto_the_pole_names_x1(self):
        # 3/8 - 1e-17 rounds to 3/8; 3e-17 is more than half an ulp of 3/8
        proc = run_cli("compute", "--x", "1e-17", "--quantity", "two_color_q")
        assert_input_error(proc)
        assert "x1 = 1e-17" in proc.stderr
        proc = run_cli("compute", "--x", "3e-17", "--quantity", "two_color_q")
        assert proc.returncode == 0
        assert proc.stdout == "-3.46495423080e+16 dimensionless\n"


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

    def test_csv_bytes_are_golden(self, tmp_path):
        out = tmp_path / "scan.csv"
        proc = run_cli(*SCAN_ARGS, "--out", str(out))
        assert (proc.returncode, proc.stdout) == (0, "")
        assert file_sha256(out) == EXPECTED_SCAN_SHA256

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

    def test_last_row_is_x_max_exactly(self, tmp_path):
        # x_min + 405 step rounds to 3/8, one ulp above this x_max, which
        # the window check then rejected
        out = tmp_path / "edge.csv"
        proc = run_cli("scan", "--x-min", "0.16681320919778359",
                       "--x-max", "0.37499999999999994", "--steps", "406",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = out.read_text().splitlines()
        assert len(rows) == 407
        assert rows[-1].startswith("3.75000000000e-01,")

    def test_always_present_columns_may_be_named(self, tmp_path):
        # x, f1, f2 and delta are always written; naming them adds nothing
        files = {}
        for columns in ("q", "x,q", "x,f1,f2,delta,q"):
            files[columns] = tmp_path / f"{columns}.csv"
            proc = run_cli("scan", "--x-min", "0.1", "--x-max", "0.3", "--steps", "5",
                           "--columns", columns, "--out", str(files[columns]))
            assert proc.returncode == 0, proc.stderr
        assert files["x,q"].read_bytes() == files["q"].read_bytes()
        assert files["x,f1,f2,delta,q"].read_bytes() == files["q"].read_bytes()

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
        assert_names_requested_path(proc, "/nonexistent-dir/out.csv")

    def test_new_out_file_gets_the_mode_open_gives(self, tmp_path):
        # 0o666 less the umask, as open(path, "w") creates it
        out = tmp_path / "scan.csv"
        assert mode_after_run(SMALL_SCAN, out) == 0o666 & ~OUT_UMASK
        assert out.read_text().startswith("x,f1,f2,delta\n")

    def test_existing_out_file_keeps_its_mode(self, tmp_path):
        out = existing_file(tmp_path / "scan.csv", 0o640)
        assert mode_after_run(SMALL_SCAN, out) == 0o640
        assert out.read_text().startswith("x,f1,f2,delta\n")

    @pytest.mark.parametrize("target_exists", [True, False], ids=["file", "dangling"])
    def test_out_through_a_symlink_writes_its_target(self, tmp_path, target_exists):
        # as open(path, "w") does: the target gets the bytes, an existing
        # one keeps its mode and a new one gets 0o666 less the umask
        target, mode = target_after_run_through_link(SMALL_SCAN, tmp_path, target_exists)
        assert target.read_text().startswith("x,f1,f2,delta\n")
        assert mode == (0o640 if target_exists else 0o666 & ~OUT_UMASK)


@pytest.fixture(scope="module")
def strict_report(tmp_path_factory):
    """``verify --profile strict --formula-variant SOURCE --out`` run once per
    source and module: returns (completed process, path of the JSON report)."""
    runs = {}

    def run(source):
        if source not in runs:
            out = tmp_path_factory.mktemp(source) / "report.json"
            runs[source] = (run_cli("verify", "--profile", "strict", "--formula-variant",
                                    source, "--out", str(out)), out)
        return runs[source]

    return run


class TestVerify:
    def test_strict_profile_passes(self, strict_report):
        proc, out = strict_report("derived")
        assert proc.returncode == 0
        assert "PASS master_identity" in proc.stdout
        assert proc.stdout.rstrip().endswith("overall: PASS")

        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "1.2.0"
        assert doc["constants_provenance"] == "CODATA-2018"
        assert doc["overall_pass"] is True
        assert [c["name"] for c in doc["checks"]] == CHECK_ORDER
        assert all(c["passed"] for c in doc["checks"])
        assert all(c["max_residual"] <= c["tolerance"]
                   for c in doc["checks"])
        assert [c["name"] for c in doc["constants"]] == [
            "resonance_q", "two_color_q", "beta_resonance", "beta_slope"]
        assert doc["generated_inputs"]["profile"] == "strict"

    @pytest.mark.parametrize("variant", sorted(STRICT_REPORT_LINES))
    def test_strict_report_lines_are_golden(self, strict_report, variant):
        # byte for byte, overall line and exit code included
        proc, _ = strict_report(variant)
        assert (proc.returncode, proc.stdout) == expected_run(variant)

    @pytest.mark.parametrize("argv,code", [
        (["compute", "--x", "0.1875", "--quantity", "q"], 2),
        (["scan", "--x-min", "0.1", "--x-max", "0.3", "--steps", "5"], 2),
        (["verify", "--profile", "strict"], 1),
    ], ids=["compute", "scan", "verify"])
    def test_formula_variant_is_an_option_of_verify_alone(self, tmp_path, argv, code):
        # the alternates are negative controls: only verify checks what they give
        out = tmp_path / "out"
        if argv[0] != "compute":
            argv = argv + ["--out", str(out)]
        proc = run_cli(*argv, "--formula-variant", "alt-a")
        assert proc.returncode == code
        if code == 2:
            assert_input_error(proc)
            assert "--formula-variant" in proc.stderr
            assert not out.exists()
        else:
            assert proc.stdout.endswith("overall: FAIL\n")
            assert json.loads(out.read_text())["formula_variant"] == "alt-a"

    def test_unwritable_path_exits_3(self):
        proc = run_cli("verify", "--out", "/nonexistent-dir/report.json")
        assert proc.returncode == 3
        assert_names_requested_path(proc, "/nonexistent-dir/report.json")

    def test_new_out_file_gets_the_mode_open_gives(self, tmp_path):
        out = tmp_path / "report.json"
        assert mode_after_run(["verify"], out) == 0o666 & ~OUT_UMASK
        assert json.loads(out.read_text())["overall_pass"] is True

    def test_existing_out_file_keeps_its_mode(self, tmp_path):
        out = existing_file(tmp_path / "report.json", 0o640)
        assert mode_after_run(["verify"], out) == 0o640
        assert json.loads(out.read_text())["overall_pass"] is True

    @pytest.mark.parametrize("target_exists", [True, False], ids=["file", "dangling"])
    def test_out_through_a_symlink_writes_its_target(self, tmp_path, target_exists):
        target, mode = target_after_run_through_link(["verify"], tmp_path, target_exists)
        assert json.loads(target.read_text())["overall_pass"] is True
        assert mode == (0o640 if target_exists else 0o666 & ~OUT_UMASK)

    @pytest.mark.usefixtures("oracle_extra")
    def test_oracle_profile_passes(self):
        proc = run_cli("verify", "--profile", "oracle")
        assert proc.returncode == 0

    def test_report_bytes_are_deterministic(self, strict_report, tmp_path):
        # the second run spells out no option: the defaults are strict and derived
        _, a = strict_report("derived")
        b = tmp_path / "b.json"
        run_cli("verify", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_strict_report_records_the_sturmian_basis(self, strict_report):
        # a strict report builds no grid and records the Sturmian basis
        _, out = strict_report("derived")
        doc = json.loads(out.read_text())
        assert tuple(doc["generated_inputs"][f] for f in INPUT_FIELDS) == (
            None, None, None, 30, 1.0)
        assert [c["source"] for c in doc["checks"]] == [
            "closed_form", "closed_form", "sturmian", "closed_form", "closed_form", "sturmian"]

    @pytest.mark.usefixtures("oracle_extra")
    def test_report_records_the_resolved_grid(self, tmp_path):
        # an oracle report writes defaulted options as the grid they resolved
        # to, so a report names its grid whatever the defaults of its version
        # were
        override = tmp_path / "override.json"
        proc = run_cli("verify", "--profile", "oracle", "--grid-points", "2000",
                       "--r-max", "100", "--out", str(override))
        assert proc.returncode == 0
        doc = json.loads(override.read_text())
        assert tuple(doc["generated_inputs"][f] for f in INPUT_FIELDS) == (
            2000, 100.0, 1e-4, None, None)
        assert [c["source"] for c in doc["checks"]] == [
            "grid", "closed_form", "grid", "closed_form", "closed_form", "grid"]

    def test_wrong_transcription_fails(self, strict_report):
        proc, out = strict_report("alt-a")
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

    # The grid checks below run where the oracle imports: without numpy the
    # command exits 2 as well, with the missing-dependency line.
    @pytest.mark.usefixtures("oracle_extra")
    def test_grid_override_is_validated(self):
        proc = run_cli("verify", "--profile", "oracle", "--grid-points", "100")
        assert_input_error(proc)
        assert proc.stderr == "error: n_points = 100 below the 2000 floor\n"

    @pytest.mark.usefixtures("oracle_extra")
    def test_grid_above_the_ceiling_is_an_input_error(self):
        # rejected before any array is allocated, not a MemoryError traceback
        proc = run_cli("verify", "--profile", "oracle", "--grid-points", "1000000000")
        assert_input_error(proc)
        assert proc.stderr.startswith("error: n_points = 1000000000 above the 200000 ceiling ")

    @pytest.mark.usefixtures("oracle_extra")
    @pytest.mark.parametrize("r_max", ["nan", "inf", "1e300", "1000", "1e20"])
    def test_unusable_r_max_is_an_input_error(self, r_max):
        # exit 1 would claim a verification failure; the grid never existed
        proc = run_cli("verify", "--profile", "oracle", "--r-max", r_max)
        assert_input_error(proc)
        assert proc.stderr.startswith(f"error: r_max = {float(r_max)} outside [60, 700] ")

    @pytest.mark.parametrize("options", [
        ["--grid-points", "2000"],
        ["--profile", "strict", "--r-max", "100"],
        ["--profile", "strict", "--grid-points", "4350", "--r-max", "80"],
    ], ids=["default-profile", "r-max", "both"])
    def test_grid_options_under_strict_are_an_input_error(self, tmp_path, options):
        # the strict profile builds no grid, so a grid option would do nothing
        out = tmp_path / "report.json"
        proc = run_cli("verify", *options, "--out", str(out))
        assert_input_error(proc)
        assert "grid options apply to --profile oracle" in proc.stderr
        assert not out.exists()

    @pytest.mark.usefixtures("oracle_extra")
    def test_failed_solve_exits_4_and_writes_no_report(self, tmp_path):
        # the grid builds, but a resolvent solve perturbed to zero misses
        # its componentwise backward-error target; the bound states do not
        # call dptsv, which only the resolvent solves
        out = tmp_path / "report.json"
        code = ("import sys\n"
                "import numpy as np\n"
                "from gauge_workbench import cli, oracle\n"
                "real = oracle.dptsv\n"
                "def zeroed(*args, **kwargs):\n"
                "    d, e, psi, info = real(*args, **kwargs)\n"
                "    return d, e, np.zeros_like(psi), info\n"
                "oracle.dptsv = zeroed\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, "verify", "--profile", "oracle", "--grid-points", "2000",
             "--out", str(out)],
            capture_output=True, text=True, env=_subprocess_env())
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: componentwise backward error ")
        assert len(proc.stderr.splitlines()) == 1
        assert not out.exists()


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

    @pytest.mark.parametrize("record", [{"c": 1e-300}, {"m_e": 1e200}, {"m_e": 1e100},
                                        {"hbar": 1e300, "e": 1e10}],
                             ids=["zero-division", "overflow", "underflow-to-0", "inf"])
    @pytest.mark.parametrize("argv", [
        ["compute", "--x", "0.1875", "--quantity", "beta"],
        ["scan", "--x-min", "0.1", "--x-max", "0.3", "--steps", "5", "--columns", "beta"],
        ["verify"],
    ], ids=["compute", "scan", "verify"])
    def test_prefactor_out_of_range_is_an_input_error(self, tmp_path, argv, record):
        # each constant is positive and finite, the beta prefactor is not
        consts = tmp_path / "consts.json"
        consts.write_text(json.dumps(record))
        out = tmp_path / "out"
        if argv[0] != "compute":
            argv = argv + ["--out", str(out)]
        proc = run_cli(*argv, "--constants-file", str(consts))
        assert_input_error(proc)
        assert proc.stderr.startswith(f"error: constants file {consts}: ")
        assert "beta prefactor" in proc.stderr and proc.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["compute", "--x", "0.3749999", "--quantity", "beta"],
        ["scan", "--x-min", "0.37", "--x-max", "0.3749999", "--steps", "3",
         "--columns", "beta"],
    ], ids=["compute", "scan"])
    def test_non_finite_beta_is_an_input_error(self, tmp_path, argv):
        # the prefactor is finite, beta at 0.3749999 overflows
        consts = tmp_path / "consts.json"
        consts.write_text(json.dumps({"e": 1e136}))
        out = tmp_path / "out.csv"
        if argv[0] == "scan":
            argv = argv + ["--out", str(out)]
        proc = run_cli(*argv, "--constants-file", str(consts))
        assert_input_error(proc)
        assert proc.stderr == ("error: beta at photon energy fraction x = 0.3749999"
                               " is inf, not a finite number\n")
        assert not out.exists()

    def test_non_finite_beta_slope_is_an_input_error(self, tmp_path):
        # beta at 3/16 stays finite (3.2e307), its slope there overflows; exit 1
        # would report a verification failure for an input the report cannot hold
        consts = tmp_path / "consts.json"
        consts.write_text(json.dumps({"e": 1.5e137}))
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--constants-file", str(consts), "--out", str(out))
        assert_input_error(proc)
        assert proc.stderr == ("error: beta slope at photon energy fraction x = 0.1875"
                               " is inf, not a finite number\n")
        assert not out.exists()

    def test_largest_finite_beta_is_printed(self, tmp_path):
        consts = tmp_path / "consts.json"
        consts.write_text(json.dumps({"e": 1e135}))
        proc = run_cli("compute", "--x", "0.3749", "--quantity", "beta",
                       "--constants-file", str(consts))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "4.07835138413e+306 Hz(W/m^2)^-1\n"


def closed_form_command(argv, loads_sturmian_and_json, tmp_path):
    """Code that runs the CLI command argv in-process and asserts whether it
    loaded the Sturmian basis and json; verify-strict is the negative
    control of both assertions: its --out writes the JSON report."""
    if argv[0] != "compute":
        argv = argv + ["--out", str(tmp_path / "out")]
    return (f"import sys\nfrom gauge_workbench.cli import main\nassert main({argv!r}) == 0\n"
            f"assert ('gauge_workbench.sturmian' in sys.modules) is {loads_sturmian_and_json}\n"
            f"assert ('json' in sys.modules) is {loads_sturmian_and_json}")


CLOSED_FORM_COMMANDS = pytest.mark.parametrize("argv,loads_sturmian_and_json", [
    (["compute", "--x", "0.1875", "--quantity", "beta"], False),
    (["scan", "--x-min", "0.1", "--x-max", "0.3", "--steps", "5",
      "--columns", "q,p,beta"], False),
    (["verify", "--profile", "strict"], True),
], ids=["compute", "scan", "verify-strict"])

# stdlib modules of 2-3 ms import each; code that needs them imports them
# where it is used, so the commands above do not pay for them
LAZY_STDLIB = ("fractions", "decimal")


class TestImportCost:
    """compute, scan and strict verify read the closed forms and the
    Sturmian basis only, and must run on the stdlib; compute and scan do
    not load the Sturmian basis or json either, and none of the three loads
    fractions or decimal.  A probe that finds no numpy where numpy is not
    installed shows nothing, so every numpy or scipy probe here but the one
    that hides numpy or scipy needs the oracle extra."""

    @pytest.mark.usefixtures("oracle_extra")
    @CLOSED_FORM_COMMANDS
    def test_closed_form_commands_load_no_numpy_or_scipy(self, tmp_path, argv,
                                                         loads_sturmian_and_json):
        code = closed_form_command(argv, loads_sturmian_and_json, tmp_path)
        assert heavy_modules_after(code) == "[]"

    @CLOSED_FORM_COMMANDS
    def test_closed_form_commands_load_no_fractions_or_decimal(self, tmp_path, argv,
                                                               loads_sturmian_and_json):
        code = closed_form_command(argv, loads_sturmian_and_json, tmp_path)
        assert heavy_modules_after(code, LAZY_STDLIB) == "[]"

    def test_fractions_import_is_detected(self):
        # negative control: fractions imports decimal, and the probe sees both
        code = "import gauge_workbench.identities\nimport fractions"
        assert heavy_modules_after(code, LAZY_STDLIB) == "['decimal', 'fractions']"

    @pytest.mark.usefixtures("oracle_extra")
    def test_identities_import_loads_no_numpy_or_scipy(self):
        assert heavy_modules_after("import gauge_workbench.identities") == "[]"

    @pytest.mark.usefixtures("oracle_extra")
    def test_oracle_verify_is_detected(self, tmp_path):
        # negative control: the grid profile does load both
        argv = ["verify", "--profile", "oracle", "--out", str(tmp_path / "report.json")]
        code = f"from gauge_workbench.cli import main\nassert main({argv!r}) == 0"
        assert heavy_modules_after(code) == "['numpy', 'scipy']"

    @pytest.mark.usefixtures("oracle_extra")
    def test_package_import_and_all_names_load_no_numpy_or_scipy(self):
        # the star import fails if a name in __all__ does not resolve
        assert heavy_modules_after("from gauge_workbench import *") == "[]"

    @pytest.mark.usefixtures("oracle_extra")
    def test_verify_stack_loads_no_scipy_special(self):
        # the bound-state seeds use a numpy Laguerre recurrence, which keeps
        # scipy.special (~70 ms) out of every cold verify; the oracle loads
        # LAPACK without the scipy.linalg package, also once a full oracle
        # report has run
        code = ("import sys\nimport gauge_workbench.identities\n"
                "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg loaded'\n"
                "assert 'scipy.special' not in sys.modules, 'scipy.special loaded'\n"
                "gauge_workbench.identities.build_report('oracle')\n"
                "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg loaded'")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_subprocess_env())
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.usefixtures("oracle_extra")
    def test_oracle_import_is_detected(self):
        # negative control: the probe does see both once the oracle loads
        assert heavy_modules_after("import gauge_workbench.oracle") == "['numpy', 'scipy']"

    @pytest.mark.usefixtures("oracle_extra")
    def test_oracle_import_runs_no_scipy_init(self):
        # the oracle finds scipy's directory without importing the package:
        # only the LAPACK extension is loaded, under its own dotted name, and
        # scipy.linalg.lapack imported later holds the same routine objects
        code = ("import sys\nimport gauge_workbench.oracle as oracle\n"
                "assert 'scipy' not in sys.modules, 'scipy imported'\n"
                "assert sys.modules['scipy.linalg._flapack'] is oracle._flapack\n"
                "from scipy.linalg import lapack\n"
                "assert lapack.dgttrf is oracle.dgttrf and lapack.dstev is oracle._flapack.dstev")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_subprocess_env())
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("hidden", ["scipy", "numpy"])
    def test_oracle_verify_without_its_dependencies_is_an_input_error(self, tmp_path, hidden):
        # the same None entry as below; the command names what it needs
        out = tmp_path / "report.json"
        code = (f"import sys\nsys.modules[{hidden!r}] = None\n"
                "from gauge_workbench.cli import main\nsys.exit(main(sys.argv[1:]))")
        proc = subprocess.run([sys.executable, "-c", code, "verify", "--profile", "oracle",
                               "--out", str(out)],
                              capture_output=True, text=True, env=_subprocess_env())
        assert_input_error(proc)
        assert proc.stderr.startswith("error: --profile oracle needs numpy and scipy: ")
        assert len(proc.stderr.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.usefixtures("oracle_extra")
    def test_oracle_import_without_scipy_is_an_import_error(self):
        # a None entry in sys.modules hides an installed package from
        # importlib.util.find_spec as well as from import
        code = ("import sys\nsys.modules['scipy'] = None\n"
                "try:\n    import gauge_workbench.oracle\nexcept ImportError as exc:\n"
                "    print(exc)\nelse:\n    raise SystemExit('imported without scipy')")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert "needs scipy" in proc.stdout
