"""Command-line front end: list the catalog, analyze an entry, run verification.

Exit codes: 0 on success, 1 on usage errors, unknown entries or a reader that
closes standard output early, 2 when a mathematical check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, catalog
from .errors import MorseflowError, UnknownEntry
from .params import DEFAULT, Tolerances
from .pipeline import MorsePackage, build_package, complex_key
from .svg import render
from .verify import run_acceptance


def _parse_tolerances(pairs: list[str]) -> Tolerances:
    mapping: dict[str, float] = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"expected NAME=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        mapping[key.strip()] = float(val)
    return Tolerances.from_mapping(mapping) if mapping else DEFAULT


def _selected_keys(complex_flag: str, coeff_flag: str) -> list[str]:
    sides = ("N", "D") if complex_flag == "both" else (complex_flag,)
    flavors = (("untwisted", "orientation") if coeff_flag == "both"
               else (coeff_flag,))
    keys = [complex_key(s, f) for s in sides for f in flavors]
    if "D" in sides and "untwisted" in flavors:
        keys.append("D_dual")
    return keys


def _report(pkg: MorsePackage, keys: list[str], overrides: list[str],
            seed: int) -> dict:
    include_pairing = any(k.startswith("N") for k in keys) \
        and any(k.startswith("D") for k in keys)
    # the ledger keeps the rows of what the report shows: the selected
    # complexes' homology, and the pairing's rows only with the pairing
    checks = []
    for rec in pkg.checks:
        row, _, name = rec.name.partition(":")
        if row == "homology" and name.split("=", 1)[0] not in keys:
            continue
        if row == "pairing_unimodular" and not include_pairing:
            continue
        checks.append(rec.as_dict())
    return {
        "manifold": pkg.entry.name,
        "critical_points": [
            {
                "id": cp.id,
                "kind": cp.kind,
                "grading": cp.grading,
                "location": cp.coords.tolist(),
                "value": cp.value,
            }
            for cp in pkg.crit.points
        ],
        "certificates": {
            "descent": pkg.field_pos.certificate.as_dict(),
            "ascent": pkg.field_neg.certificate.as_dict(),
        },
        "complexes": {k: pkg.complexes[k].as_dict() for k in keys},
        "homology": {k: pkg.homology[k].as_dict() for k in keys},
        "pairing": ({str(k): rep.as_dict() for k, rep in pkg.pairing.items()}
                    if include_pairing else {}),
        "ledger": checks,
        "meta": {
            "version": __version__,
            "seed": seed,
            "pairing_seed": pkg.pairing_seed,
            "tolerance_overrides": sorted(overrides or []),
        },
    }


def _print_text(report: dict) -> None:
    print(f"manifold: {report['manifold']}")
    print("critical points:")
    for cp in report["critical_points"]:
        loc = ", ".join(f"{c:.6f}" for c in cp["location"])
        print(f"  [{cp['id']}] {cp['kind']:<10s} grading {cp['grading']} "
              f"at ({loc})  value {cp['value']:.6f}")
    print("homology:")
    for key, h in report["homology"].items():
        print(f"  {key:<14s} betti {h['betti']} torsion {h['torsion']}")
    if report["pairing"]:
        for k, rep in sorted(report["pairing"].items()):
            body = rep["matrix"] if rep["matrix"] is not None else rep["reason"]
            print(f"  pairing degree {k}: {body}")
    bad = [c for c in report["ledger"] if not c["passed"]]
    print(f"checks: {len(report['ledger']) - len(bad)} passed, {len(bad)} failed")
    for c in bad:
        print(f"  FAIL {c['name']}: {c['detail']}")


def cmd_list(_args) -> int:
    for name in catalog.names():
        print(name)
    return 0


def cmd_analyze(args) -> int:
    try:
        tol = _parse_tolerances(args.tol)
    except (ValueError, KeyError) as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return 1
    try:
        entry = catalog.get(args.name)
        pkg = build_package(entry, args.seed, tol)
    except UnknownEntry:
        print(f"unknown entry: {args.name}", file=sys.stderr)
        return 1
    except MorseflowError as exc:  # NotMorse too, from an entry failing validation
        print(f"analysis failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    keys = _selected_keys(args.complex, args.coefficients)
    report = _report(pkg, keys, args.tol, args.seed)
    if args.svg:
        if entry.chart.dim == 2:
            try:
                render(entry, pkg, args.svg)
            except OSError as exc:
                print(f"cannot write svg: {exc}", file=sys.stderr)
                return 1
        else:
            print("svg output skipped: entry is one-dimensional", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        _print_text(report)
    return 0 if all(c["passed"] for c in report["ledger"]) else 2


def cmd_verify(args) -> int:
    try:
        tol = _parse_tolerances(args.tol)
    except (ValueError, KeyError) as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return 1
    results = run_acceptance(args.seed, tol)
    for res in results:
        print(res.line())
    ok = all(r.passed for r in results)
    print(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    return 0 if ok else 2


def _seed(text: str) -> int:
    """A perturbation seed: an integer >= 0, as numpy's generators take."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit with code 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="morseflow",
                     description="Morse complexes on compact manifolds with boundary")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print catalog entry names").set_defaults(fn=cmd_list)

    ana = sub.add_parser("analyze", help="analyze one catalog entry")
    ana.add_argument("name")
    ana.add_argument("--complex", choices=("N", "D", "both"), default="both")
    ana.add_argument("--coefficients", choices=("untwisted", "orientation", "both"),
                     default="both")
    ana.add_argument("--format", choices=("text", "json"), default="text")
    ana.add_argument("--svg", metavar="PATH", default=None)
    ana.add_argument("--seed", type=_seed, default=0)
    ana.add_argument("--tol", action="append", metavar="NAME=VALUE",
                     help="tolerance override (repeatable)")
    ana.set_defaults(fn=cmd_analyze)

    ver = sub.add_parser("verify", help="run the acceptance checks")
    ver.add_argument("--seed", type=_seed, default=0)
    ver.add_argument("--tol", action="append", metavar="NAME=VALUE")
    ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone (`| head`): send what is still buffered to devnull,
        # so the interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
