"""Tests of the benchmark itself: the metrics it prints, and that each oracle
check fails on a report corrupted to break it.

Run from the root of a checkout:  python -m pytest perfbench/test_perfbench.py
"""
import contextlib
import copy
import io
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402


def _bench(monkeypatch, trace: int) -> dict:
    monkeypatch.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from morseflow import catalog
    # the run swaps counted fields into the catalog cache; keep that local
    monkeypatch.setattr(catalog, "_CACHE", dict(catalog._CACHE))
    monkeypatch.setitem(run.ANALYZE, "analyze-flat", (("interval", 0), ("interval", run.DERIVED)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "analyze-flat", "--seed", "1",
                         "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_printed_with_unit(monkeypatch, trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _bench(monkeypatch, trace)
    assert result["correct"] is True
    assert result["failed"] == 0
    # one pass (--seconds 0), running each operation twice when traced
    assert result["attempted"] == (2 if trace == 0 else 4)
    # every per-layer metric is printed on every workload; a layer that does
    # not run reads 0
    for metric in spec[section]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float))
    assert set(result["metrics"]) == {m["name"] for m in spec[section]}


def _analyze(name: str) -> str:
    sys.path.insert(0, str(ROOT / "src"))
    from morseflow import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", name, "--format", "json"]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def reports():
    return {name: _analyze(name) for name in ("tilted_dome", "annulus")}


def _corrupt(text: str, edit) -> dict:
    rep = copy.deepcopy(json.loads(text))
    edit(rep)
    return rep


def test_oracle_accepts_real_reports(reports):
    for text in reports.values():
        assert oracle.check_report(json.loads(text)) == []


CORRUPTIONS = {
    # d_1 of the dome is 0 (two cancelling orbits); making it 1 breaks d.d = 0
    "d.d != 0": ("tilted_dome", lambda r: r["complexes"]["N_untwisted"]["matrices"]
                 .__setitem__("1", [[1]])),
    "want |m| = 1": ("tilted_dome", lambda r: r["complexes"]["N_untwisted"]["matrices"]
                     .__setitem__("2", [[2]])),
    "matrices give": ("tilted_dome", lambda r: r["complexes"]["N_orientation"]["matrices"]
                      .__setitem__("2", [[0]])),
    "reported": ("tilted_dome", lambda r: r["homology"]["D_dual"].__setitem__(
        "betti", [0, 1, 1])),
    "generator Euler characteristic": (
        "annulus", lambda r: r["complexes"]["D_untwisted"].update(
            generators=[[], [1], [2, 99]], matrices={})),
    "generators below betti": (
        "annulus", lambda r: r["complexes"]["N_untwisted"].update(
            generators=[[0], [], []], matrices={})),
    "not unimodular": ("annulus", lambda r: r["pairing"]["1"].__setitem__("matrix", [[2]])),
}


@pytest.mark.parametrize("needle", sorted(CORRUPTIONS))
def test_each_check_fails_on_its_corruption(reports, needle):
    name, edit = CORRUPTIONS[needle]
    problems = oracle.check_report(_corrupt(reports[name], edit))
    assert any(needle in p for p in problems), problems


def test_flipped_sign_fails_the_cross_pass_checks(reports):
    text = reports["tilted_dome"]
    flipped = _corrupt(text, lambda r: r["complexes"]["N_untwisted"]["matrices"]
                       .__setitem__("2", [[-v for v in r["complexes"]["N_untwisted"]
                                            ["matrices"]["2"][0]]]))
    ledger = oracle.PassLedger()
    key = ("tilted_dome", 0)
    assert ledger.check_pass([(key, text)], [json.loads(text)]) == []
    problems = ledger.check_pass([(key, json.dumps(flipped))], [flipped])
    assert any("bytes differ" in p for p in problems), problems
    other = _corrupt(text, lambda r: r["homology"]["N_untwisted"].__setitem__(
        "betti", [1, 1, 0]))
    problems = ledger.check_pass([(key, text), (("tilted_dome", 5), json.dumps(other))],
                                 [json.loads(text), other])
    assert any("differs between seeds" in p for p in problems), problems


def test_invariance_capture_is_traced(monkeypatch):
    """Criterion 9's groups reach the oracle in a traced execution too: the
    tracer wraps the capture and restores it, not the bare function."""
    sys.path.insert(0, str(ROOT / "src"))
    import probes
    from morseflow import catalog, pipeline, verify
    for mod, attr in probes.holders(pipeline.homologies_for_seed):
        monkeypatch.setattr(mod, attr, getattr(mod, attr))  # undone after the test
    work = run.Workload("verify", 0, oracle, probes,
                        {"cli": None, "pipeline": pipeline, "verify": verify})
    interval = catalog.get("interval")
    tracer = probes.Tracer()
    tracer.plan()
    tracer.enable()
    try:
        groups = verify.homologies_for_seed(interval, 1)
    finally:
        tracer.disable()
    assert tracer.spans[0][0] == "pipeline.homologies_for_seed"
    assert work.invariance == [("interval", 1, groups)]
    verify.homologies_for_seed(interval, 1)
    assert len(work.invariance) == 2
    assert oracle.check_homology("interval", {k: h.as_dict() for k, h in groups.items()}) == []


def test_yardstick_times_the_loop_during_an_operation():
    def spin():  # 0.5 s of wall time, reference timings included
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            pass
        return "done"
    stick = run.Yardstick(0.1)
    out, took, ref = stick.measure(spin)
    assert out == "done"
    assert len(stick.samples) >= 2 * run.REF_SAMPLES + 3
    assert stick.inside > 0 and 0.5 <= took + stick.inside < 0.6
    assert ref > 0


def test_textbook_groups_fail_wrong_homology():
    assert oracle.check_homology("moebius", {"N_orientation": {
        "betti": [0, 0, 0], "torsion": [[2], [], []]}}) == []
    assert oracle.check_homology("moebius", {"N_orientation": {
        "betti": [1, 1, 0], "torsion": [[], [], []]}})


def test_exact_integer_routines():
    assert oracle.bareiss_det([[2, 1], [1, 1]]) == 1
    assert oracle.bareiss_det([[0, 1, 0], [1, 0, 0], [0, 0, 3]]) == -3
    assert oracle.invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert oracle.invariant_factors([[2, 4], [4, 8]]) == [2]
    assert oracle.invariant_factors([[0, 0]]) == []
