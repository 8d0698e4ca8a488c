import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import morseflow
from morseflow.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_names(capsys):
    code, out, _ = run(capsys, "list")
    names = out.strip().splitlines()
    assert code == 0
    assert "moebius" in names
    assert len(names) == 5


def test_analyze_annulus_json(capsys):
    code, out, _ = run(capsys, "analyze", "annulus", "--complex", "N",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["homology"]["N_untwisted"]["betti"] == [1, 1, 0]
    assert set(report) == {"manifold", "critical_points", "certificates",
                           "complexes", "homology", "pairing", "ledger", "meta"}


def test_analyze_moebius_orientation(capsys):
    code, out, _ = run(capsys, "analyze", "moebius", "--complex", "N",
                       "--coefficients", "orientation", "--format", "json")
    assert code == 0
    h = json.loads(out)["homology"]["N_orientation"]
    assert h["betti"] == [0, 0, 0]
    assert h["torsion"][0] == [2]


def test_analyze_unknown_entry(capsys):
    code, _, err = run(capsys, "analyze", "nosuch")
    assert code == 1
    assert "unknown entry" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "analyze")[0] == 1
    assert run(capsys)[0] == 1


def test_bad_tolerance_rejected(capsys):
    code, _, err = run(capsys, "analyze", "disk", "--tol", "nope=3")
    assert code == 1
    assert "bad arguments" in err


def test_fractional_count_rejected(capsys):
    code, _, err = run(capsys, "analyze", "disk", "--tol", "max_steps=2.5")
    assert code == 1
    assert "bad arguments" in err


def test_json_byte_identical(capsys):
    _, first, _ = run(capsys, "analyze", "interval", "--format", "json")
    _, second, _ = run(capsys, "analyze", "interval", "--format", "json")
    assert first == second


def test_env_tolerance_overrides(capsys, monkeypatch):
    monkeypatch.setenv("MORSE_TOL_OVERRIDES", json.dumps({"r_launch": 9e-5}))
    code, out, _ = run(capsys, "analyze", "interval", "--format", "json")
    assert code == 0
    assert json.loads(out)["homology"]["N_untwisted"]["betti"] == [1, 0]


def test_svg_written(tmp_path, capsys):
    target = tmp_path / "disk.svg"
    code, _, _ = run(capsys, "analyze", "disk", "--format", "json",
                     "--svg", str(target))
    assert code == 0
    body = target.read_text()
    assert body.startswith("<svg")
    assert 'width="800"' in body
    assert "</svg>" in body


def test_svg_unwritable_path(tmp_path, capsys):
    target = tmp_path / "missing" / "disk.svg"
    code, _, err = run(capsys, "analyze", "disk", "--format", "json",
                       "--svg", str(target))
    assert code == 1
    assert err.startswith("cannot write svg: ")
    assert "Traceback" not in err


def _source_env() -> dict:
    """Environment for a subprocess that imports this checkout's morseflow."""
    src = str(Path(morseflow.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_m_matches_main(tmp_path, capsys):
    argv = ["analyze", "interval", "--format", "json"]
    _, expected, _ = run(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", "morseflow", *argv], cwd=tmp_path,
                          env=_source_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_closed_stdout_exits_one_without_traceback(tmp_path):
    # the reader end is closed before the report is written, as when
    # `| head -c 100` has already exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "morseflow", "analyze", "disk",
                               "--format", "json"], cwd=tmp_path, env=_source_env(),
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", [("analyze", "interval", "--seed", "-1"),
                                  ("verify", "--seed", "-2")],
                         ids=lambda argv: argv[0])
def test_negative_seed_is_a_usage_error(tmp_path, argv):
    proc = subprocess.run([sys.executable, "-m", "morseflow", *argv], cwd=tmp_path,
                          env=_source_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage: morseflow")


def test_svg_skipped_for_interval(tmp_path, capsys):
    target = tmp_path / "interval.svg"
    code, _, err = run(capsys, "analyze", "interval", "--svg", str(target))
    assert code == 0
    assert not target.exists()
    assert "skipped" in err


def test_text_format_mentions_homology(capsys):
    code, out, _ = run(capsys, "analyze", "disk")
    assert code == 0
    assert "homology:" in out
    assert "betti [1, 0, 0]" in out


def test_verify_exit_two_on_failed_check(capsys, monkeypatch):
    from morseflow import cli
    from morseflow.pipeline import CheckRecord

    def fake(seed, tol):
        return [CheckRecord(" 1 injected fault", False, "fixture corruption")]

    monkeypatch.setattr(cli, "run_acceptance", fake)
    code, out, _ = run(capsys, "verify")
    assert code == 2
    assert "FAIL" in out


def test_nonpositive_sample_count_rejected(capsys):
    code, _, err = run(capsys, "analyze", "disk", "--tol",
                       "cert_interior_samples=0")
    assert code == 1
    assert "bad arguments" in err


def test_env_overrides_must_be_an_object(capsys, monkeypatch):
    monkeypatch.setenv("MORSE_TOL_OVERRIDES", "[1]")
    code, _, err = run(capsys, "analyze", "disk")
    assert code == 1
    assert "bad arguments" in err


def test_removed_sweep_tolerance_is_unknown(capsys):
    code, _, err = run(capsys, "analyze", "tilted_dome", "--tol",
                       "sweep_samples=24")
    assert code == 1
    assert "unknown tolerance names" in err
