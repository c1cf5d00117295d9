import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from specbound.cli import build_parser, run
from specbound.linalg import resolve_profile
from specbound.qve import moment_recursion, support_from_moments

SRC = Path(__file__).resolve().parents[1] / "src"

EXP500_TRIVIAL = 4.3159157401465924
EXP500_IMPROVED = 4.0022959868671108
EXP500_WC = 1.0783599599601265


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def write_plain(path, rows):
    lines = [str(len(rows))] + [" ".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


# ------------------------------------------------------------------- bound

def test_bound_constant_profile(capsys):
    code, payload, err = invoke(capsys, "bound", "--profile", "wigner",
                                "--n", "20", "--j", "10")
    assert code == 0
    assert payload["trivial_bound"] == pytest.approx(2.0, abs=1e-12)
    assert payload["improved_bound"] == pytest.approx(2.0, abs=1e-9)
    assert payload["w_c"] == pytest.approx(1.0, abs=1e-9)
    for key in ("n", "J", "norm_s", "w_c", "trivial_bound", "improved_bound",
                "z"):
        assert key in payload
    assert len(payload["z"]) == 10
    assert payload["z"][0] == 1.0
    assert payload["manifest"]["command"] == "bound"
    assert payload["manifest"]["parameters"]["j"] == 10
    assert "version" in payload["manifest"]
    assert "trivial bound" in err


def test_bound_exponential_profile_full_size(capsys):
    code, payload, _ = invoke(capsys, "bound", "--profile", "expprofile",
                              "--n", "500", "--j", "50")
    assert code == 0
    assert payload["trivial_bound"] == pytest.approx(EXP500_TRIVIAL, rel=1e-10)
    assert payload["improved_bound"] == pytest.approx(EXP500_IMPROVED, rel=1e-9)
    assert payload["w_c"] == pytest.approx(EXP500_WC, rel=1e-9)


def test_bound_rejects_asymmetric_matrix(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    write_plain(bad, [[0.0, 1.0], [2.0, 0.0]])
    code, _, err = invoke(capsys, "bound", "--profile", str(bad))
    assert code == 2
    assert "(0, 1)" in err


@pytest.mark.parametrize("rows,source,message", [
    ([[0.0, -0.5], [-0.5, 0.0]], "{f}", "negative entry -0.5 at (0, 1)"),
    ([[1.0, -0.5, 0.0]], "gram:{f}", "negative entry -0.5 at (0, 1)"),
    ([[0.0, 1.0], [2.0, 0.0]], "{f}",
     "matrix is not symmetric: entry (0, 1) = 1.0 but (1, 0) = 2.0"),
], ids=["negative", "gram-negative", "asymmetric"])
def test_bound_input_errors_print_plain_floats(tmp_path, capsys, rows, source,
                                               message):
    f = tmp_path / "m.txt"
    write_plain(f, rows)
    code, payload, err = invoke(capsys, "bound", "--profile", source.format(f=f))
    assert code == 2
    assert payload is None
    assert err == f"error: {message}\n"


def test_bound_rejects_repair_of_a_gram_source(tmp_path, capsys):
    # only a square matrix file is repaired: the gram linearization does
    # not repair its file and generated profiles need no repair, so a
    # manifest recording "repair": true would misdescribe the run
    f = tmp_path / "rect.txt"
    write_plain(f, [[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    for source in ([f"gram:{f}"], ["wigner", "--n", "4"],
                   ["expprofile", "--n", "4"], ["random", "--n", "4"]):
        code, payload, err = invoke(capsys, "bound", "--profile", *source,
                                    "--j", "2", "--repair")
        assert code == 2
        assert payload is None
        assert err.startswith("error: repair applies only to square matrix files")


SQUARE = [[0.5, 0.25], [0.25, 0.5]]
N_REFUSED = "n applies only to generated profiles (wigner, expprofile, random)"
SEED_REFUSED = "a profile seed applies only to 'random'"


@pytest.mark.parametrize("source,rows,message", [
    (["wigner"], None, "n must be a positive integer, got None"),
    (["expprofile", "--n", "0"], None, "n must be a positive integer, got 0"),
    (["{f}"], [[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]],
     "expected a nonempty square matrix, got shape (2, 3)"),
    (["gram:{f}"], [[1.0, float("nan")]], "matrix contains NaN or infinite entries"),
    (["gram:{f}"], [[1.0, 0.0], [0.0, float("-inf")]], "negative entry -inf at (1, 1)"),
    # a file or gram: source has its own size, which --n would not change
    (["{f}", "--n", "7"], SQUARE, N_REFUSED + ", not to '{f}'"),
    (["gram:{f}", "--n", "7"], SQUARE, N_REFUSED + ", not to 'gram:{f}'"),
    # only the random generator draws, so no other source reads a seed
    (["wigner", "--n", "4", "--profile-seed", "3"], None,
     SEED_REFUSED + ", not to 'wigner'"),
    (["{f}", "--profile-seed", "3"], SQUARE, SEED_REFUSED + ", not to '{f}'"),
], ids=["no-n", "zero-n", "non-square-file", "gram-nan", "gram-minus-inf",
        "file-with-n", "gram-with-n", "wigner-with-profile-seed",
        "file-with-profile-seed"])
def test_bound_source_errors_exit_2_with_one_line(tmp_path, capsys, source, rows,
                                                  message):
    # each of these is rejected by the one check that reads the value
    f = tmp_path / "m.txt"
    if rows is not None:
        write_plain(f, rows)
    code, payload, err = invoke(capsys, "bound", "--profile",
                                *(a.format(f=f) for a in source), "--j", "2")
    assert code == 2
    assert payload is None
    assert err == f"error: {message.format(f=f)}\n"


def test_bound_deep_j_on_star_profile_file(tmp_path, capsys):
    # z_j underflows before j = 250 on this profile
    f = tmp_path / "star.txt"
    n = 1000
    write_plain(f, [[int(x == 0 or y == 0) * int(x != y) for y in range(n)]
                    for x in range(n)])
    code, payload, _ = invoke(capsys, "bound", "--profile", str(f), "--j", "250")
    assert code == 0
    assert payload["w_c"] == pytest.approx(1.23573, abs=1e-5)


def test_bound_undecodable_matrix_files_exit_2(tmp_path, capsys):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe2\n1 2\n")
    superscript = tmp_path / "superscript.txt"
    superscript.write_bytes("²\n1 2\n".encode())
    for source in (("--profile", str(binary)), ("--profile", f"gram:{superscript}")):
        code, payload, err = invoke(capsys, "bound", *source)
        assert code == 2
        assert payload is None
        assert err.startswith("error: ")


def test_bound_missing_file(capsys):
    code, _, err = invoke(capsys, "bound", "--profile", "/nonexistent/m.txt")
    assert code == 2
    assert "error" in err.lower()


def test_bound_negative_profile_seed_is_an_input_error(capsys):
    code, payload, err = invoke(capsys, "bound", "--profile", "random",
                                "--n", "3", "--profile-seed", "-1")
    assert code == 2
    assert payload is None
    assert err == "error: seed must be a nonnegative integer, got -1\n"


def test_random_source_without_a_profile_seed_draws_with_seed_0(capsys):
    argv = ["bound", "--profile", "random", "--n", "6", "--j", "4"]
    code, unset, _ = invoke(capsys, *argv)
    code_0, zero, _ = invoke(capsys, *argv, "--profile-seed", "0")
    assert code == code_0 == 0
    assert unset["manifest"]["parameters"]["source"]["seed"] == 0
    assert strip_clock(unset) == strip_clock(zero)


def test_bound_requires_a_source(capsys):
    code, _, err = invoke(capsys, "bound")
    assert code == 2
    assert "source" in err


@pytest.mark.parametrize("command,removed", [
    ("bound", ("--tol", "1e-12")), ("bound", ("--matrix", "m.txt")),
    ("bound", ("--json", "report.json")),
    # the scan's settings are qve's alone
    ("report", ("--eta", "1e-3")), ("report", ("--grid-step", "1e-3")),
    ("report", ("--threshold", "1e-3")),
    # report runs the moment proxy at one depth
    ("report", ("--kmax", "20"))],
    ids=["tol", "matrix", "json", "report-eta", "report-grid-step",
         "report-threshold", "report-kmax"])
def test_bound_removed_flags_are_unrecognized(capsys, command, removed):
    with pytest.raises(SystemExit) as exc:
        run([command, "--profile", "wigner", "--n", "4", *removed])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# --------------------------------------------------------------------- qve

def test_qve_locates_semicircle_edge(capsys):
    code, payload, err = invoke(capsys, "qve", "--profile", "wigner", "--n", "16")
    assert code == 0
    assert payload["found"]
    assert abs(payload["value"] - 2.0) < 0.05
    assert payload["manifest"]["parameters"]["eta"] == 1e-3
    assert "support edge" in err


def test_qve_zero_matrix_reports_not_found(tmp_path, capsys):
    f = tmp_path / "zeros.txt"
    write_plain(f, [[0.0] * 4 for _ in range(4)])
    code, payload, err = invoke(capsys, "qve", "--profile", str(f))
    assert code == 0
    assert payload["value"] == 0.0
    assert not payload["found"]
    assert "not detected" in err


def test_qve_zero_matrix_csv_runs_to_one(tmp_path, capsys):
    # the zero profile's grid runs from 0 to 2 sqrt(|S|) + 1 = 1 as well
    f = tmp_path / "zeros.txt"
    write_plain(f, [[0.0] * 2 for _ in range(2)])
    csv_path = tmp_path / "scan.csv"
    code, payload, _ = invoke(capsys, "qve", "--profile", str(f),
                              "--csv", str(csv_path))
    assert code == 0
    assert payload["grid_top"] == 1.0
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "tau,density" and len(rows) == 22
    assert rows[-1].startswith("1,")


def test_qve_density_that_never_reaches_the_threshold_is_not_found(capsys):
    # the smoothed semicircle density stays below 1 on the whole grid
    code, payload, err = invoke(capsys, "qve", "--profile", "wigner", "--n", "20",
                                "--grid-step", "0.01", "--threshold", "1")
    assert code == 0
    assert "support not detected" in err
    assert payload["found"] is False
    assert payload["value"] == 0.0
    assert payload["grid_top"] == 3.0


def test_qve_writes_density_csv(tmp_path, capsys):
    csv_path = tmp_path / "scan.csv"
    code, _, _ = invoke(capsys, "qve", "--profile", "wigner", "--n", "10",
                        "--csv", str(csv_path), "--csv-step", "0.25")
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "tau,density"
    taus, dens = [], []
    for line in lines[1:]:
        t, d = line.split(",")
        taus.append(float(t))
        dens.append(float(d))
    assert taus == sorted(taus)
    assert all(d >= 0 for d in dens)
    assert max(dens) > 0.01


@pytest.mark.parametrize("flag,value", [
    ("--eta", "nan"), ("--eta", "inf"), ("--grid-step", "nan"),
    ("--threshold", "nan")])
def test_qve_rejects_non_finite_scan_parameters(capsys, flag, value):
    code, payload, err = invoke(capsys, "qve", "--profile", "wigner", "--n", "4",
                                flag, value)
    assert code == 2
    assert payload is None
    assert flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf", "1e-300"])
def test_qve_rejects_bad_csv_step(tmp_path, capsys, step):
    csv_path = tmp_path / "scan.csv"
    code, _, err = invoke(capsys, "qve", "--profile", "wigner", "--n", "4",
                          "--csv", str(csv_path), "--csv-step", step)
    assert code == 2
    assert "--csv-step" in err
    assert not csv_path.exists()


# ---------------------------------------------------------------------- mc

def test_mc_command(capsys):
    code, payload, err = invoke(capsys, "mc", "--profile", "wigner",
                                "--n", "30", "--trials", "3", "--seed", "2")
    assert code == 0
    assert payload["trials"] == 3
    assert payload["seed"] == 2
    assert payload["ensemble"] == "real-symmetric"
    assert len(payload["per_trial"]) == 3
    assert payload["failures"] == 0
    assert payload["mean"] == pytest.approx(sum(payload["per_trial"]) / 3)
    assert payload["std"] > 0 and payload["std_defined"]
    assert 1.4 < payload["mean"] < 2.2
    assert payload["manifest"]["parameters"]["trials"] == 3
    assert "mean |lambda|_max" in err


def test_mc_zero_trials_is_an_input_error(capsys):
    code, _, err = invoke(capsys, "mc", "--profile", "wigner", "--n", "4",
                          "--trials", "0")
    assert code == 2
    assert "trials" in err


# ------------------------------------------------------------------ report

def test_report_constant_profile_ordering(capsys):
    code, payload, err = invoke(capsys, "report", "--profile", "wigner",
                                "--n", "12", "--trials", "4", "--seed", "3")
    assert code == 0
    est = payload["support_estimate"]
    assert payload["trivial_bound"] == pytest.approx(2.0, abs=1e-12)
    assert payload["improved_bound"] == pytest.approx(2.0, abs=1e-9)
    assert payload["moment_proxy"] <= est["value"] + 0.05
    assert est["value"] <= payload["improved_bound"] + est["grid_step"]
    assert payload["mc"]["mean"] <= payload["improved_bound"] + 0.1
    assert "moment proxy" in err and "trivial bound" in err


# the flags each subcommand needs besides the source, kept small
GRAM_RUN_FLAGS = {
    "bound": [],
    "qve": [],
    "mc": ["--trials", "2"],
    "report": ["--trials", "2"],
}


@pytest.mark.parametrize("command", GRAM_RUN_FLAGS)
def test_gram_source_carries_note(tmp_path, capsys, command):
    # every subcommand reports the largest singular value of a gram: source
    f = tmp_path / "rect.txt"
    write_plain(f, [[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    code, payload, err = invoke(capsys, command, "--profile", f"gram:{f}",
                                *GRAM_RUN_FLAGS[command])
    assert code == 0
    assert "singular value" in payload["note"]
    assert "note:" in err


@pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--seed", "-1")])
def test_report_checks_mc_flags_before_any_stage(monkeypatch, capsys, flag, value):
    import specbound.cli as cli

    calls = []
    monkeypatch.setattr(cli, "support_bound", lambda *a, **k: calls.append(a))
    code, payload, err = invoke(capsys, "report", "--profile", "wigner",
                                "--n", "4", flag, value)
    assert code == 2
    assert payload is None
    assert flag[2:] in err
    assert calls == []


def test_report_overflow_is_a_numeric_failure(tmp_path, capsys):
    f = tmp_path / "huge.txt"
    write_plain(f, [[1000.0] * 3 for _ in range(3)])
    code, _, err = invoke(capsys, "report", "--profile", str(f),
                          "--trials", "1")
    assert code == 3
    assert "numeric failure" in err


@pytest.mark.parametrize("command", ["bound", "qve", "report"])
def test_row_sum_overflow_is_a_numeric_failure(tmp_path, capsys, command):
    # finite entries whose row sums leave double-precision range
    f = tmp_path / "huge.txt"
    write_plain(f, [[1e308, 1e308], [1e308, 1e308]])
    code, payload, err = invoke(capsys, command, "--profile", str(f))
    assert code == 3
    assert payload is None
    assert "numeric failure: max row sum |S| overflows" in err


@pytest.mark.parametrize("value", [2e29, 1e306])
def test_unbuildable_scan_grid_is_an_input_error(tmp_path, capsys, value):
    # |S| is finite, but the scan grid from 0 to 2 sqrt(|S|) + 1 at the
    # default step holds more points than an array can
    f = tmp_path / "big.txt"
    write_plain(f, [[value, value], [value, value]])
    code, payload, err = invoke(capsys, "qve", "--profile", str(f))
    assert code == 2
    assert payload is None
    assert err.startswith("error: a scan grid of ")
    assert "points is too large" in err
    assert "Traceback" not in err


def test_report_shares_flag_groups_with_qve_and_mc(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["report", "--help"])
    out = capsys.readouterr().out
    assert "imaginary offset of the probe line" not in out
    assert "number of samples" in out
    parser = build_parser()
    report = vars(parser.parse_args(["report"]))
    # report shares bound's depth and mc's settings; the scan's settings
    # are qve's alone, and report runs the scan at their defaults
    for sub, keys in (("bound", ["j"]), ("mc", ["trials", "seed", "ensemble"])):
        given = vars(parser.parse_args([sub]))
        for key in keys:
            assert report[key] == given[key], (sub, key)
    assert not {"eta", "grid_step", "threshold"} & report.keys()
    # and it keeps no setting of its own
    own = report.keys() - {"command", "func", "profile", "n", "profile_seed",
                           "repair"}
    assert own == {"j", "trials", "seed", "ensemble"}


def test_report_moment_proxy_is_the_library_proxy_at_depth_100(capsys):
    code, payload, err = invoke(capsys, "report", "--profile", "random",
                                "--n", "8", "--profile-seed", "3",
                                "--trials", "1")
    assert code == 0
    s, _ = resolve_profile("random", n=8, seed=3)
    assert payload["moment_proxy"] == support_from_moments(moment_recursion(s, 100))
    assert payload["moment_kmax"] == 100
    assert "(kmax = 100)" in err


def test_report_support_estimate_is_the_qve_payload(capsys):
    source = ["--profile", "random", "--n", "30", "--profile-seed", "5"]
    code, report, _ = invoke(capsys, "report", *source, "--trials", "1")
    assert code == 0
    code, scan, _ = invoke(capsys, "qve", *source)
    assert code == 0
    scan.pop("manifest")
    assert report["support_estimate"] == scan


# ----------------------------------------------------- manifest reproducibility

def strip_clock(payload):
    out = json.loads(json.dumps(payload))
    out["manifest"].pop("wall_clock_seconds")
    out["manifest"].pop("cpu_seconds")
    return out


def strip_timing(payload):
    out = strip_clock(payload)
    for part in (out, out.get("mc", {})):
        part.pop("elapsed", None)
    return out


def argv_from_manifest(manifest):
    """Rebuild a command line from nothing but a manifest."""
    params = dict(manifest["parameters"])
    source = params.pop("source")
    argv = [manifest["command"], "--profile"]
    if source["profile"] == "file":
        argv.append(source["path"])
    elif source["profile"] == "gram":
        argv.append("gram:" + source["path"])
    else:
        argv += [source["profile"], "--n", str(source["n"])]
        if "seed" in source:
            argv += ["--profile-seed", str(source["seed"])]
    for key, value in params.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not False and value is not None:
            argv += [flag, str(value)]
    return argv


def test_manifest_records_the_cpu_seconds_of_the_run(capsys):
    code, payload, _ = invoke(capsys, "report", "--profile", "wigner", "--n", "4")
    assert code == 0
    cpu = payload["manifest"]["cpu_seconds"]
    assert isinstance(cpu, float) and cpu >= 0.0


def test_bound_rerun_is_bitwise_identical(capsys):
    argv = ["bound", "--profile", "random", "--n", "8",
            "--profile-seed", "5", "--j", "12"]
    code_a, a, _ = invoke(capsys, *argv)
    code_b, b, _ = invoke(capsys, *argv)
    assert code_a == code_b == 0
    assert strip_clock(a) == strip_clock(b)


def test_manifest_parameters_reconstruct_the_run(tmp_path, capsys):
    near = tmp_path / "near.txt"  # off by 1e-12: loads only with --repair
    write_plain(near, [[0.5, 1.0], [1.0 + 1e-12, 0.25]])
    rect = tmp_path / "rect.txt"
    write_plain(rect, [[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    csv_path = tmp_path / "scan.csv"
    runs = [
        ["bound", "--profile", "random", "--n", "9", "--profile-seed", "11",
         "--j", "7"],
        ["bound", "--profile", str(near), "--repair"],
        ["qve", "--profile", "wigner", "--n", "10", "--grid-step", "0.01",
         "--csv", str(csv_path), "--csv-step", "0.1"],
        ["mc", "--profile", "expprofile", "--n", "20", "--trials", "3",
         "--seed", "0", "--ensemble", "complex-hermitian"],
        ["report", "--profile", f"gram:{rect}", "--j", "12", "--trials", "2"],
    ]
    # the near file warns that it was repaired, on both of its runs
    with pytest.warns(UserWarning, match="repaired"):
        for argv in runs:
            code, first, _ = invoke(capsys, *argv)
            assert code == 0, argv
            csv_first = csv_path.read_bytes() if "--csv" in argv else None
            csv_path.unlink(missing_ok=True)
            rebuilt = argv_from_manifest(first["manifest"])
            code_again, again, _ = invoke(capsys, *rebuilt)
            assert code_again == code, rebuilt
            assert strip_timing(again) == strip_timing(first), rebuilt
            if csv_first is not None:
                assert csv_path.read_bytes() == csv_first, rebuilt


def test_mc_rerun_reproduces_trials(capsys):
    argv = ["mc", "--profile", "expprofile", "--n", "20",
            "--trials", "3", "--seed", "123"]
    _, a, _ = invoke(capsys, *argv)
    _, b, _ = invoke(capsys, *argv)
    assert a["per_trial"] == b["per_trial"]


def src_env(**extra):
    """The parent's environment with ``extra`` set and src/ first on
    PYTHONPATH: the child imports this checkout's package, installed or not."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# An address-space cap set in a fresh interpreter, before numpy loads:
# each request then fails at allocation on any host, whatever its
# overcommit policy, and no page of the array is ever touched.
CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
from specbound.cli import run
sys.exit(run(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv,size", [
    (["qve", "--profile", "wigner", "--n", "4", "--csv", "t.csv",
      "--csv-step", "1e-13"], "218. TiB"),
    (["qve", "--profile", "wigner", "--n", "4", "--grid-step", "1e-13"], "218. TiB"),
    (["bound", "--profile", "wigner", "--n", "3000000"], "65.5 TiB"),
    (["bound", "--profile", "wigner", "--n", "4", "--j", "100000000000"], "745. GiB"),
], ids=["csv-step", "grid-step", "n", "j"])
def test_unallocatable_input_is_an_input_error(tmp_path, argv, size):
    proc = subprocess.run([sys.executable, "-c", CAPPED, *argv], cwd=tmp_path,
                          capture_output=True, text=True,
                          env=src_env(SPECBOUND_THREADS="1"), timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: Unable to allocate {size}")
    assert "Traceback" not in proc.stderr


# -------------------------------------------------------------- entry points

def test_module_entry_point_and_thread_cap():
    env = src_env(SPECBOUND_THREADS="2")
    proc = subprocess.run(
        [sys.executable, "-m", "specbound.cli", "bound",
         "--profile", "wigner", "--n", "4", "--j", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["improved_bound"] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("value", ["0", "-3", "abc", "1.5"])
def test_invalid_thread_cap_exits_2_before_the_source(tmp_path, value):
    # OpenBLAS takes 0, -3 and abc as every CPU and 1.5 as 1, so none is
    # passed on; the missing file is never opened
    proc = subprocess.run(
        [sys.executable, "-m", "specbound.cli", "bound", "--profile", "missing.txt"],
        cwd=tmp_path, capture_output=True, text=True,
        env=src_env(SPECBOUND_THREADS=value), timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: SPECBOUND_THREADS must be a positive "
                           f"integer, got {value!r}\n")


@pytest.mark.parametrize("value,exported", [("0", None), ("abc", None), ("3", "3")])
def test_only_a_positive_thread_cap_is_passed_on(value, exported):
    env = src_env(SPECBOUND_THREADS=value)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    proc = subprocess.run(
        [sys.executable, "-c", "import os, specbound; "
         "print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        capture_output=True, text=True, env=env, check=True, timeout=60)
    assert proc.stdout.strip() == str(exported)


def test_empty_thread_cap_is_unset():
    proc = subprocess.run(
        [sys.executable, "-m", "specbound.cli", "bound",
         "--profile", "wigner", "--n", "4", "--j", "2"],
        capture_output=True, text=True, env=src_env(SPECBOUND_THREADS=""),
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["improved_bound"] == pytest.approx(2.0, abs=1e-9)


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "specbound.cli", "--version"],
        capture_output=True, text=True, env=src_env(),
    )
    assert proc.returncode == 0
    assert "specbound" in proc.stdout
