import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import morseflow
from morseflow import catalog, cli, pipeline, svg
from morseflow.cli import main
from morseflow.critical import BOUNDARY_D, BOUNDARY_N, INTERIOR
from test_fields import with_wrong_wall


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


def test_svg_colours_every_orbit_by_f(packages, tmp_path):
    """The D side descends -f, yet its orbits are coloured by f at their
    start, on the scale of the critical values of f: the annulus's two D
    orbits start at f = -1."""
    pkg = packages["annulus"]
    entry = pkg.entry
    target = tmp_path / "annulus.svg"
    svg.render(entry, pkg, str(target))
    dashed = re.findall(r'stroke="(rgb\([0-9,]+\))" stroke-width="1.5" '
                        r'stroke-dasharray="4,3"', target.read_text())
    values = [cp.value for cp in pkg.crit.points]
    starts = [float(entry.field.value(o.trajectory.points[0]))
              for inc in pkg.incidences["D"].values() for o in inc.orbits]
    assert len(starts) == 2 and np.allclose(starts, -1.0)
    want = {svg._color(f, min(values), max(values)) for f in starts}
    assert dashed and set(dashed) == want
    assert "rgb(189,60,90)" not in want  # the colour of f = +1


def test_svg_thins_every_polyline_and_keeps_its_end(packages, tmp_path):
    """Wall loops and orbits are thinned alike, to every step-th point with
    step = len // 300, and each keeps its last point: a loop closes, and an
    orbit ends where its trajectory ends."""
    mapper = svg._Mapper(catalog.get("disk").chart)
    piece = np.stack([np.linspace(-1.0, 1.0, 1001), np.zeros(1001)], axis=1)
    drawn = re.search(r'points="([^"]*)"', svg._polyline(mapper, piece, "")).group(1)
    assert len(drawn.split()) == 335  # rows 0, 3, ..., 999 and row 1000
    assert drawn.split()[-1] == "{},{}".format(*mapper.pt(piece[-1]))
    pkg = packages["disk"]
    target = tmp_path / "disk.svg"
    svg.render(pkg.entry, pkg, str(target))
    loops = re.findall(r'points="([^"]*)" fill="none" stroke="black"', target.read_text())
    assert len(loops) == 1
    loop = loops[0].split()
    assert len(loop) == 335 and loop[0] == loop[-1]  # 2,000 traced rows, closed


@pytest.mark.parametrize("name", ["moebius", "tilted_dome"])
def test_svg_draws_glyphs_seams_and_split_curves(packages, tmp_path, name):
    """One glyph per critical point of its kind; on the Möbius band the two
    seams, and every curve broken where it crosses a seam (the boundary
    circle crosses both), so that no segment spans half the drawn period
    (360 px)."""
    pkg = packages[name]
    target = tmp_path / f"{name}.svg"
    svg.render(pkg.entry, pkg, str(target))
    root = ElementTree.parse(target).getroot()

    def drawn(tag, **attrs):
        return [el for el in root.iter("{http://www.w3.org/2000/svg}" + tag)
                if all(el.get(key.replace("_", "-")) == val for key, val in attrs.items())]

    kinds = [cp.kind for cp in pkg.crit.points]
    assert len(drawn("circle")) == kinds.count(BOUNDARY_N)
    assert len(drawn("rect", width="12")) == kinds.count(BOUNDARY_D)
    assert len(drawn("polygon")) == kinds.count(INTERIOR)
    seams = drawn("line", stroke_dasharray="6,4")
    assert len(seams) == (2 if name == "moebius" else 0)
    for line in drawn("polyline"):
        xs = [float(pair.split(",")[0]) for pair in line.get("points").split()]
        assert np.abs(np.diff(xs)).max() <= 360.0


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


def _hessian_off_by_identity():
    make = catalog._BUILDERS["disk"]

    def broken():
        entry = make()
        hessian = entry.field.hessian
        return dataclasses.replace(entry, field=dataclasses.replace(
            entry.field, hessian=lambda x: hessian(x) + np.eye(2)))
    return broken


@pytest.mark.parametrize("broken, message", [
    # a disk whose hessian is off by the identity fails at construction
    (_hessian_off_by_identity, "NotMorse: hessian disagrees"),
    # as does a disk whose rim has twice its curvature
    (lambda: with_wrong_wall("disk", "rim", hessian=lambda h: 2.0 * h),
     "NotMorse: wall 'rim': hessian disagrees"),
], ids=["field", "wall"])
def test_entry_failing_validation_is_reported(capsys, monkeypatch, broken, message):
    monkeypatch.setitem(catalog._BUILDERS, "disk", broken())
    monkeypatch.setattr(catalog, "_CACHE", {})
    code, out, err = run(capsys, "analyze", "disk", "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith(f"analysis failed: {message}")
    assert "Traceback" not in err


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


@pytest.mark.parametrize("name, value, entry", [
    ("sweep_samples", "24", "tilted_dome"),
    # critical values may tie, so nothing reads a minimal gap between them
    ("tol_val", "1e-6", "interval"),
    # the critical search scans the certification sample's wall
    ("boundary_samples", "400", "disk"),
    # both stop radii follow r_launch: convergence within r_launch / 10, and
    # a non-transverse exit within r_launch of a critical point
    ("r_conv", "1e-6", "tilted_dome"),
    ("degeneracy_tol", "1e-3", "annulus"),
], ids=["sweep_samples", "tol_val", "boundary_samples", "r_conv", "degeneracy_tol"])
def test_retired_tolerance_is_unknown(capsys, name, value, entry):
    code, _, err = run(capsys, "analyze", entry, "--tol", f"{name}={value}")
    assert code == 1
    assert f"unknown tolerance names: ['{name}']" in err


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
    # ends at sample 0 where it started; no perturbation seed mends that.  The
    # convergence radius, r_launch / 10, follows the launch, so r_launch alone
    # is a valid override
    builds = []
    build_adapted = pipeline.build_adapted
    monkeypatch.setattr(pipeline, "build_adapted",
                        lambda *a, **k: builds.append(1) or build_adapted(*a, **k))
    code, out, err = run(capsys, "analyze", "tilted_dome", "--tol", "r_launch=1e-300")
    assert code == 2 and out == ""
    assert err.startswith("analysis failed: StalledBranch: ")
    assert "generator 1 " in err and "r_launch = 1e-300" in err
    assert err.endswith("(perturb_seed None)\n")
    assert len(builds) == 1
