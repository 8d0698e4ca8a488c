"""morseflow benchmark: one command, run from the root of a source checkout.

    python3 perfbench/run.py --workload analyze-flat --seed 0 --seconds 20 --trace 0

Workloads (see README.md in this directory):
  analyze-flat  `morseflow analyze <entry> --format json` for interval, disk,
                annulus and moebius at seed 0, and for interval and disk at a
                perturbation seed derived from --seed
  analyze-dome  the same command for tilted_dome at seed 0
  verify        the ten acceptance criteria of `morseflow verify` at seed 0,
                with criterion 9 at one perturbation seed instead of three

The program is imported from ./src of the checkout and driven in this process,
one thread, through `morseflow.cli.main` and the acceptance checks of
`morseflow.verify`.  Passes over the workload's operations repeat until
--seconds would be exceeded; every operation's output is checked by oracle.py.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1, each with the unit BENCHMARK.json
declares.  A traced run also writes its spans to .perfbench-out/ in the
checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ALL_ENTRIES = ("interval", "disk", "annulus", "moebius", "tilted_dome")
DERIVED = None  # stands for the perturbation seed derived from --seed
# (entry, perturbation seed) per analyze operation.  Seed 0 is the CLI
# default, which skips the perturbation closure.  The derived seed runs on the
# two cheapest flat entries only, to keep a pass short (see README.md).
ANALYZE = {
    "analyze-flat": (("interval", 0), ("disk", 0), ("annulus", 0), ("moebius", 0),
                     ("interval", DERIVED), ("disk", DERIVED)),
    "analyze-dome": (("tilted_dome", 0),),
}
# verify: one operation per acceptance criterion, on a fresh context at seed 0.
# `morseflow verify` runs criterion 9 at seeds 1-3; one seed does the same
# kind of work at a third of the cost, and keeps a pass near 45 s.
CRITERIA = range(1, 11)
INVARIANCE_SEEDS = (1,)
WORKLOADS = (*ANALYZE, "verify")
SETUP_REPEATS = 5
REF_SAMPLES = 3  # reference-loop timings on each side of an operation
REF_INTERVAL = 0.5  # seconds between reference-loop timings during an operation
# The reference loop's time on the measuring box at its usual speed; set-up
# times are reported scaled to it (see measure_setup).
REF_NOMINAL_S = 0.02
# Perturbation seeds 1-7 are known to pass on every catalog entry.
DERIVED_SEEDS = range(1, 8)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def reference_time() -> float:
    """Seconds taken by a fixed computation shaped like morseflow's inner loop
    (small numpy products and float math in Python).  On a shared host the
    machine's speed can drift by 2x within minutes; timing this next to every
    operation gives a yardstick that drifts with it."""
    a = np.array([0.3, 0.7])
    m = 2.0 * np.eye(2)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(4000):
        v = m @ a + 0.5 * a
        acc += math.sin(float(v[0])) + float(np.linalg.norm(v))
    return time.perf_counter() - start


class Yardstick:
    """The machine's speed while an operation ran: the reference loop timed
    three times on each side of it and, by an interval timer, every
    REF_INTERVAL seconds while it runs, so that a long operation is measured
    against the speed of its whole length.  The timings made during the
    operation are taken out of its time."""

    def __init__(self, interval: float = REF_INTERVAL):
        self.interval = interval  # 0: no timings during the operation
        self.samples: list[float] = []
        self.inside = 0.0
        self.armed = False

    def _tick(self, _signum, _frame):
        if self.armed:
            start = time.perf_counter()
            self.samples.append(reference_time())
            self.inside += time.perf_counter() - start

    def measure(self, fn):
        """fn()'s result, its wall time without the reference timings, and the
        mean reference time around and during it.  The timings during it are
        evenly spaced in time, so their mean follows the machine's speed
        averaged over the operation, which is what its wall time reflects."""
        self.samples = [reference_time() for _ in range(REF_SAMPLES)]
        self.inside = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.armed = False
            took = time.perf_counter() - start - self.inside
            signal.signal(signal.SIGALRM, previous)
        self.samples += [reference_time() for _ in range(REF_SAMPLES)]
        return out, took, statistics.fmean(self.samples)


def derived_seed(seed: int) -> int:
    return random.Random(seed).choice(DERIVED_SEEDS)


def measure_setup(src: Path) -> tuple[float, float]:
    """Set-up time and catalog time, each the median over fresh processes of
    its ratio to the reference loop timed in the same process, in seconds at
    the speed where the reference loop takes REF_NOMINAL_S."""
    setup, get = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(src)],
                              capture_output=True, text=True, timeout=60, check=True)
        row = json.loads(done.stdout.strip().splitlines()[-1])
        setup.append(row["setup_s"] / row["ref_s"] * REF_NOMINAL_S)
        get.append(row["catalog_get_s"] / row["ref_s"] * REF_NOMINAL_S)
    return statistics.median(setup), statistics.median(get)


def package_report(pkg) -> dict:
    """The analyze report's checked fields, built from a package's public parts."""
    return {
        "manifold": pkg.entry.name,
        "complexes": {k: cx.as_dict() for k, cx in pkg.complexes.items()},
        "homology": {k: h.as_dict() for k, h in pkg.homology.items()},
        "pairing": {str(k): rep.as_dict() for k, rep in pkg.pairing.items()},
    }


def analyze_op(cli, argv):
    def run(_ctx):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)  # looked up per call, so a traced run sees its span
        return rc, buf.getvalue()
    return run


def criterion_op(verify, number):
    def run(ctx):
        check = verify.ALL_CHECKS[number - 1]  # looked up per call, as above
        res = check(ctx, seeds=INVARIANCE_SEEDS) if number == 9 else check(ctx)
        return (0 if res.passed else 2), res.line()
    return run


class Workload:
    def __init__(self, name: str, seed: int, oracle, probes, modules: dict):
        self.oracle = oracle
        self.ledger = oracle.PassLedger()
        self.verify = modules["verify"] if name == "verify" else None
        self.invariance: list[tuple[str, int, dict]] = []
        self.ops = []  # (entry or criterion, seed, run)
        if self.verify:
            if self.verify.ALL_CHECKS[8] is not self.verify.check_invariance:
                raise RuntimeError("criterion 9 is no longer check_invariance")
            self.ops = [(f"criterion_{n:02d}", 0, criterion_op(self.verify, n))
                        for n in CRITERIA]
            self._capture_invariance(probes, modules["pipeline"])
        for entry, s in ANALYZE.get(name, ()):
            s = derived_seed(seed) if s is DERIVED else s
            argv = ["analyze", entry, "--format", "json"] + (["--seed", str(s)] if s else [])
            self.ops.append((entry, s, analyze_op(modules["cli"], argv)))
        self.op_times: dict[tuple[str, int], list[float]] = {}
        self.op_ratios: dict[tuple[str, int], list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _capture_invariance(self, probes, pipeline) -> None:
        """Keep the groups criterion 9 computes, for the oracle.  Bound for the
        whole run, before a tracer plans its wrappers, so it wraps this one."""
        original = pipeline.homologies_for_seed

        def homologies_for_seed(entry, seed, *a, **k):
            out = original(entry, seed, *a, **k)
            self.invariance.append((entry.name, seed, out))
            return out
        for mod, attr in probes.holders(original):
            setattr(mod, attr, homologies_for_seed)

    def run_pass(self, runners: dict, yardstick) -> dict[str, float]:
        """Every operation once under each runner, back to back, each measured
        by ``yardstick``; returns the summed wall time of the operations per
        runner."""
        busy = dict.fromkeys(runners, 0.0)
        outputs, reports = [], []
        self.invariance.clear()
        contexts = ({label: self.verify.VerificationContext(0) for label in runners}
                    if self.verify else dict.fromkeys(runners))
        for entry, seed, op in self.ops:
            for label, runner in runners.items():
                try:
                    (rc, text), took, ref = yardstick.measure(
                        lambda: runner(op, contexts[label]))
                except Exception as exc:  # a crash is a failed operation
                    rc, text, took, ref = f"{type(exc).__name__}: {exc}", "", 0.0, 1.0
                busy[label] += took
                self.op_times.setdefault((entry, seed), []).append(took)
                self.op_ratios.setdefault((entry, seed), []).append(took / ref)
                outputs.append(((entry, seed), text))
                self.attempted += 1
                if rc != 0:
                    self.failed += 1
                    log(f"failed: {entry} seed {seed} -> {rc} {text.strip()}")
                    continue
                if not self.verify:
                    reports.append(json.loads(text))
                    self.problems += self.oracle.check_report(reports[-1])
        if self.verify:
            # the packages the criteria were judged on, and criterion 9's groups
            for ctx in contexts.values():
                for name in ALL_ENTRIES:
                    try:  # built by criterion 1 unless it failed
                        reports.append(package_report(ctx.package(name)))
                    except Exception as exc:
                        self.problems.append(f"{name}: no package ({exc})")
                        continue
                    self.problems += self.oracle.check_report(reports[-1])
            for name, _, groups in self.invariance:
                self.problems += self.oracle.check_homology(
                    name, {k: h.as_dict() for k, h in groups.items()})
        self.problems += self.ledger.check_pass(outputs, reports)
        return busy


def typical_pass(per_op: dict) -> float:
    """One pass: each operation's mean over the run's passes, summed."""
    return sum(statistics.fmean(times) for times in per_op.values())


def median(values):
    """Median; of whole numbers (counts), one of the values, so it stays whole."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def median_metrics(rows: list[dict]) -> dict:
    return {k: median(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "morseflow" / "__init__.py").is_file():
        log(f"no morseflow sources under {src}; run from the root of a checkout")
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import morseflow
    from morseflow import catalog, cli, pipeline, verify
    import oracle
    import probes
    if Path(morseflow.__file__).resolve().parent != (src / "morseflow").resolve():
        log(f"imported morseflow from {morseflow.__file__}, not from {src}")
        return 2

    setup_s, catalog_get_s = measure_setup(src)
    counter = probes.ObjectiveCounter()
    counter.install(catalog)
    work = Workload(args.workload, args.seed, oracle, probes,
                    {"cli": cli, "pipeline": pipeline, "verify": verify})
    runners = {"plain": lambda op, ctx: op(ctx)}
    if args.trace:
        tracer = probes.Tracer()
        tracer.plan()

        def traced(op, ctx):
            tracer.enable()
            try:
                return op(ctx)
            finally:
                tracer.disable()
        runners["traced"] = traced
    # a traced run reports seconds only; its operations run without the timer
    yardstick = Yardstick(0.0 if args.trace else REF_INTERVAL)
    log(f"{args.workload}: {len(work.ops)} operations per pass; setup {setup_s:.3f} s")

    # The first analysis in a process pays one-time costs that later ones do
    # not (the first of a run took 10-35% longer than the next); pay them
    # before timing, on the cheapest 2-D entry.
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["analyze", "disk", "--format", "json"])
    rows, layer_rows, evals = [], [], []
    begin = time.perf_counter()
    while True:
        before = counter.points
        mark = tracer.mark() if args.trace else None
        rows.append(work.run_pass(runners, yardstick))
        evals.append(counter.points - before)
        if args.trace:
            layer_rows.append(tracer.pass_metrics(mark, ALL_ENTRIES))
        log(f"pass {len(rows)}: " + ", ".join(f"{k} {v:.3f} s" for k, v in rows[-1].items()))
        took = statistics.median(sum(r.values()) for r in rows)
        if time.perf_counter() - begin + took > args.seconds:
            break

    for problem in work.problems:
        log(f"oracle: {problem}")
    if args.trace:
        metrics = median_metrics(layer_rows)
        metrics["catalog.get_s"] = catalog_get_s
        for key, label in (("untraced", "plain"), ("traced", "traced")):
            metrics[f"trace.{key}_wall_s"] = statistics.median(r[label] for r in rows)
        metrics["trace.overhead_s"] = statistics.median(r["traced"] - r["plain"] for r in rows)
        log(f"layer self times sum to {metrics['trace.self_sum_s']:.3f} s; untraced "
            f"wall {metrics['trace.untraced_wall_s']:.3f} s; tracing overhead "
            f"{metrics['trace.overhead_s']:+.3f} s")
        out_dir = root / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_ref": typical_pass(work.op_ratios),
            "objective_evals": median(evals),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for key, times in work.op_times.items():
            log(f"  {key[0]} seed {key[1]}: s " + " ".join(f"{t:.3f}" for t in times)
                + "; ref " + " ".join(f"{r:.1f}" for r in work.op_ratios[key]))
        log(f"wall time of a pass {typical_pass(work.op_times):.3f} s, "
            f"wall_ref {metrics['wall_ref']:.3f}")
        if len(set(evals)) > 1:
            log(f"objective evaluations differ between passes: {evals}")
    result = {
        "correct": not work.problems,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
