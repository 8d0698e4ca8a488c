import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import morseflow
from morseflow import catalog, cli, pipeline
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


@pytest.mark.parametrize("side", ["N", "D"])
def test_one_side_reports_no_pairing_row(capsys, side):
    """Without the pairing, the ledger keeps only the selected homology row."""
    code, out, _ = run(capsys, "analyze", "annulus", "--complex", side,
                       "--coefficients", "orientation", "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["pairing"] == {}
    assert [row["name"].split("=")[0] for row in report["ledger"]] == [
        f"homology:{side}_orientation"]
    _, text, _ = run(capsys, "analyze", "annulus", "--complex", side,
                     "--coefficients", "orientation")
    assert "checks: 1 passed, 0 failed" in text


def test_exit_code_follows_only_reported_rows(capsys, monkeypatch, packages):
    pkg = packages["annulus"]
    checks = [dataclasses.replace(c, passed=False)
              if c.name.startswith("pairing_unimodular:") else c for c in pkg.checks]
    assert checks != pkg.checks
    monkeypatch.setattr(cli, "build_package",
                        lambda *_: dataclasses.replace(pkg, checks=checks))
    assert run(capsys, "analyze", "annulus", "--complex", "N")[0] == 0
    code, out, _ = run(capsys, "analyze", "annulus")
    assert code == 2 and "FAIL pairing_unimodular:deg1" in out


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


def _reject_non_finite(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


@pytest.mark.parametrize("name", catalog.names())
def test_reports_are_strict_json(capsys, name):
    code, out, _ = run(capsys, "analyze", name, "--format", "json")
    assert code == 0
    json.loads(out, parse_constant=_reject_non_finite)


def test_empty_interior_sample_fails_certification(capsys):
    # no interior point lies farther than r_excl = 10 from the critical points
    code, out, err = run(capsys, "analyze", "disk", "--tol", "r_excl=10",
                         "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith("analysis failed: BlendGapFailure: ")
    assert "'descent_margin': nan" in err and "'interior_samples': 0" in err


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
    assert f"morseflow {argv[0]}: error: argument --seed: seed must be >= 0" \
        in proc.stderr


def test_usage_error_states_its_reason(capsys):
    code, _, err = run(capsys, "analyze", "disk", "--complex", "X")
    assert code == 1
    assert err.startswith("usage: morseflow analyze")
    assert "morseflow analyze: error: argument --complex: invalid choice" in err


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


def test_removed_sweep_tolerance_is_unknown(capsys):
    code, _, err = run(capsys, "analyze", "tilted_dome", "--tol",
                       "sweep_samples=24")
    assert code == 1
    assert "unknown tolerance names" in err


def test_removed_value_gap_tolerance_is_unknown(capsys):
    # critical values may tie, so nothing reads a minimal gap between them
    code, _, err = run(capsys, "analyze", "interval", "--tol", "tol_val=1e-6")
    assert code == 1
    assert "unknown tolerance names: ['tol_val']" in err


def test_empty_wall_sample_fails_certification(capsys):
    # at r_n = 2 the patch of the interval's minimum covers every wall point,
    # so the first build tests no inward condition; its NaN margin fails, and
    # the build passes at the halved radius, where the type-D endpoint is tested
    code, out, _ = run(capsys, "analyze", "interval", "--tol", "r_n=2",
                       "--format", "json")
    assert code == 0
    for cert in json.loads(out)["certificates"].values():
        assert cert["attempts"] == 2 and cert["r_n"] == 1.0
        assert cert["boundary_samples"] == 1 and cert["inward_margin"] > 0.0


def test_branch_that_never_leaves_its_generator(capsys, monkeypatch):
    # a launch 1e-300 from the dome's N saddle rounds onto it, so the branch
    # ends at sample 0 where it started; no perturbation seed mends that
    builds = []
    build_adapted = pipeline.build_adapted
    monkeypatch.setattr(pipeline, "build_adapted",
                        lambda *a, **k: builds.append(1) or build_adapted(*a, **k))
    code, out, err = run(capsys, "analyze", "tilted_dome", "--tol", "r_launch=1e-300",
                         "--tol", "r_conv=1e-301")
    assert code == 2 and out == ""
    assert err.startswith("analysis failed: StalledBranch: ")
    assert "generator 1 " in err and "r_launch = 1e-300" in err
    assert err.endswith("(perturb_seed None)\n")
    assert len(builds) == 1
