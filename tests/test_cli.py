import json
import os
import subprocess
import sys

import pytest

from specbound.cli import build_parser, run

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


def test_bound_requires_a_source(capsys):
    code, _, err = invoke(capsys, "bound")
    assert code == 2
    assert "source" in err


@pytest.mark.parametrize("removed", [
    ("--tol", "1e-12"), ("--matrix", "m.txt"), ("--json", "report.json")],
    ids=["tol", "matrix", "json"])
def test_bound_removed_flags_are_unrecognized(capsys, removed):
    with pytest.raises(SystemExit) as exc:
        run(["bound", "--profile", "wigner", "--n", "4", *removed])
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


@pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf"])
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


def test_report_gram_source_carries_note(tmp_path, capsys):
    f = tmp_path / "rect.txt"
    write_plain(f, [[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    code, payload, err = invoke(capsys, "report", "--profile", f"gram:{f}",
                                "--trials", "2", "--kmax", "20")
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
                          "--trials", "1", "--kmax", "100")
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


def test_report_shares_flag_groups_with_qve_and_mc(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["report", "--help"])
    out = capsys.readouterr().out
    assert "imaginary offset of the probe line" in out
    assert "number of samples" in out
    parser = build_parser()
    report = vars(parser.parse_args(["report"]))
    for sub in ("bound", "qve", "mc"):
        for key, value in vars(parser.parse_args([sub])).items():
            if key not in ("command", "func", "csv", "csv_step"):
                assert report[key] == value, (sub, key)


# ----------------------------------------------------- manifest reproducibility

def strip_clock(payload):
    out = json.loads(json.dumps(payload))
    out["manifest"].pop("wall_clock_seconds")
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
        ["report", "--profile", f"gram:{rect}", "--j", "12", "--kmax", "20",
         "--threshold", "0.02", "--trials", "2"],
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


# -------------------------------------------------------------- entry points

def test_module_entry_point_and_thread_cap():
    env = dict(os.environ, SPECBOUND_THREADS="2")
    proc = subprocess.run(
        [sys.executable, "-m", "specbound.cli", "bound",
         "--profile", "wigner", "--n", "4", "--j", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["improved_bound"] == pytest.approx(2.0, abs=1e-9)


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "specbound.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "specbound" in proc.stdout
