"""Counters and spans attached to morseflow from outside the package.

Nothing under ``src/`` knows about these.  ``ObjectiveCounter`` wraps the
catalog entries' own ``value``/``gradient``/``hessian`` callables, so every
point the program evaluates is counted however it is batched.  ``Tracer``
replaces each traced public name in every morseflow module that looked it up
(``pipeline``, ``cli`` and ``verify`` import functions by name), records one
span per call, and aggregates the per-point calls (``evaluate``,
``smith_normal_form``) into a count and a time instead of one span each.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Layers, in the order their self times are reported.
LAYERS = ("cli", "verify", "pipeline", "critical", "pseudogradient", "flow",
          "chains", "catalog")


def holders(obj) -> list[tuple[object, str]]:
    """(module, attribute) for every morseflow module global bound to ``obj``."""
    return [(mod, attr) for modname, mod in list(sys.modules.items())
            if mod is not None and modname.startswith("morseflow")
            for attr, value in list(vars(mod).items()) if value is obj]


class ObjectiveCounter:
    """Counts points passed to the catalog entries' objective callables."""

    def __init__(self):
        self.points = 0

    def _wrap(self, fn):
        def counted(x):
            if getattr(x, "ndim", None) == 1:
                self.points += 1
            else:
                shape = np.shape(x)
                self.points += 1 if len(shape) <= 1 else int(np.prod(shape[:-1]))
            return fn(x)
        return counted

    def install(self, catalog) -> None:
        """Swap every cached catalog entry for one whose field is counted."""
        for name in catalog.names():
            entry = catalog.get(name)
            f = entry.field
            counted = type(f)(value=self._wrap(f.value),
                              gradient=self._wrap(f.gradient),
                              hessian=self._wrap(f.hessian))
            catalog._CACHE[name] = dataclasses.replace(entry, field=counted)


class _JsonShim:
    """Stands in for the ``json`` module inside ``morseflow.cli``."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """Spans (name, start, end, parent, attrs) around morseflow's public names."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []      # [name, start, end, parent, attrs]
        self._stack: list[int] = []
        self._child: list[float] = []    # time covered by children, per open span
        self.self_time: dict[str, float] = defaultdict(float)
        self.aggregates: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn, attrs_in=None, attrs_out=None):
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            attrs = attrs_in(*args, **kwargs) if attrs_in else {}
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            start = time.perf_counter()
            self.spans.append([name, start, None, parent, attrs])
            self._stack.append(idx)
            self._child.append(0.0)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                covered = self._child.pop()
                self.spans[idx][2] = end
                self.self_time[layer] += (end - start) - covered
                if self._child:
                    self._child[-1] += end - start
            if attrs_out:
                attrs.update(attrs_out(out))
            return out
        return traced

    def aggregate(self, name: str, fn):
        layer = name.split(".", 1)[0]
        cell = self.aggregates[name]

        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                cell[0] += 1
                cell[1] += took
                self.self_time[layer] += took
                if self._child:
                    self._child[-1] += took
        return counted

    # -- installing ----------------------------------------------------------

    def _replace_everywhere(self, original, wrapped) -> None:
        """Rebind ``original`` in every morseflow module that holds it."""
        for mod, attr in holders(original):
            self._patches.append((mod, attr, original, wrapped))

    def _replace_attr(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), wrapped))

    def plan(self) -> None:
        """Decide every wrapper once; ``enable``/``disable`` swap them in and out."""
        from morseflow import catalog, chains, cli, critical, flow, pipeline
        from morseflow import pseudogradient, verify

        S = self.span
        self._replace_attr(cli, "main", S("cli.main", cli.main))
        self._replace_everywhere(catalog.get, S("catalog.get", catalog.get))
        self._replace_everywhere(
            pipeline.build_package,
            S("pipeline.build_package", pipeline.build_package,
              attrs_in=lambda entry, *a, **k: {"entry": entry.name}))
        self._replace_everywhere(
            pipeline.homologies_for_seed,
            S("pipeline.homologies_for_seed", pipeline.homologies_for_seed,
              attrs_in=lambda entry, *a, **k: {"entry": entry.name}))
        self._replace_everywhere(critical.find_critical_set,
                                 S("critical.find", critical.find_critical_set))
        self._replace_everywhere(
            pseudogradient.build_adapted,
            S("pseudogradient.build", pseudogradient.build_adapted,
              attrs_out=lambda f: {"attempts": f.certificate.attempts}))
        self._replace_everywhere(
            pseudogradient.certify_adapted,
            S("pseudogradient.certify", pseudogradient.certify_adapted,
              attrs_out=lambda c: {"samples": c.interior_samples + c.boundary_samples}))
        self._replace_attr(pseudogradient.PseudoGradientField, "evaluate",
                           self.aggregate("pseudogradient.evaluate",
                                          pseudogradient.PseudoGradientField.evaluate))
        self._replace_everywhere(
            flow.integrate,
            S("flow.integrate", flow.integrate,
              attrs_out=lambda t: {"points": len(t.points)}))
        self._replace_everywhere(
            flow.count_connecting_orbits,
            S("flow.orbits", flow.count_connecting_orbits,
              attrs_in=lambda field, p, q, *a, **k: {"grading": p.grading},
              attrs_out=lambda inc: {"orbits": len(inc.orbits)}))
        self._replace_everywhere(flow.intersection_pairing,
                                 S("flow.pairing", flow.intersection_pairing))
        self._replace_attr(chains.IntegerChainComplex, "homology",
                           S("chains.homology", chains.IntegerChainComplex.homology))
        self._replace_everywhere(chains.smith_normal_form,
                                 self.aggregate("chains.snf", chains.smith_normal_form))
        self._replace_attr(verify, "ALL_CHECKS", tuple(
            S(f"verify.criterion_{i:02d}", fn)
            for i, fn in enumerate(verify.ALL_CHECKS, start=1)))
        self._replace_everywhere(cli._report, S("cli.report", cli._report))
        self._replace_attr(cli, "json", _JsonShim(S("cli.report", json.dumps)))

    def enable(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def disable(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, float], dict[str, tuple[int, float]]]:
        """Snapshot taken at the start of a pass, for ``pass_metrics``."""
        return (len(self.spans), dict(self.self_time),
                {k: tuple(v) for k, v in self.aggregates.items()})

    def pass_metrics(self, mark, entries) -> dict[str, float]:
        """Per-layer figures for the spans recorded since ``mark``."""
        first, self_before, agg_before = mark
        spans = self.spans[first:]
        total = defaultdict(float)
        count = defaultdict(int)
        for name, start, end, _, _ in spans:
            total[name] += end - start
            count[name] += 1

        def attr_sum(name, key):
            return sum(s[4].get(key, 0) for s in spans if s[0] == name)

        def agg(name):
            c0, t0 = agg_before.get(name, (0, 0.0))
            c1, t1 = self.aggregates.get(name, (0, 0.0))
            return c1 - c0, t1 - t0

        def under_orbits(idx):
            parent = self.spans[idx][3]
            while parent is not None:
                if self.spans[parent][0] == "flow.orbits":
                    return True
                parent = self.spans[parent][3]
            return False

        launched = sum(1 for i in range(first, len(self.spans))
                       if self.spans[i][0] == "flow.integrate" and under_orbits(i))
        evals, eval_s = agg("pseudogradient.evaluate")
        snf_calls, _ = agg("chains.snf")
        layer_self = {layer: self.self_time.get(layer, 0.0) - self_before.get(layer, 0.0)
                      for layer in LAYERS}
        out = {
            "critical.find_s": total["critical.find"],
            "critical.find_calls": count["critical.find"],
            "pseudogradient.builds": count["pseudogradient.build"],
            "pseudogradient.build_attempts": attr_sum("pseudogradient.build", "attempts"),
            "pseudogradient.certify_s": total["pseudogradient.certify"],
            "pseudogradient.cert_samples": attr_sum("pseudogradient.certify", "samples"),
            "pseudogradient.field_evals": evals,
            "pseudogradient.eval_us": 1e6 * eval_s / evals if evals else 0.0,
            "flow.integrations": count["flow.integrate"],
            "flow.integrate_s": total["flow.integrate"],
            "flow.rk_samples": attr_sum("flow.integrate", "points"),
            "flow.orbits_sweep_s": sum(e - s for n, s, e, _, a in spans
                                       if n == "flow.orbits" and a["grading"] == 2),
            "flow.orbits_branch_s": sum(e - s for n, s, e, _, a in spans
                                        if n == "flow.orbits" and a["grading"] == 1),
            "flow.orbit_yield": (attr_sum("flow.orbits", "orbits") / launched
                                 if launched else 0.0),
            "flow.pairing_s": total["flow.pairing"],
            # each NonTransverse out of an orbit count or a pairing makes the
            # pipeline rebuild that field with the next perturbation seed
            "pipeline.perturb_retries": sum(
                1 for s in spans if s[0] in ("flow.orbits", "flow.pairing")
                and s[4].get("error") == "NonTransverse"),
            "chains.homology_s": layer_self["chains"],
            "chains.snf_calls": snf_calls,
            "cli.report_s": total["cli.report"],
        }
        for entry in entries:
            out[f"pipeline.analysis_s.{entry}"] = sum(
                e - s for n, s, e, _, a in spans
                if n == "pipeline.build_package" and a["entry"] == entry)
        for i in range(1, 11):
            out[f"verify.criterion_{i:02d}_s"] = total[f"verify.criterion_{i:02d}"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["trace.self_sum_s"] = sum(layer_self.values())
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the tracer's creation."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start - self.t0,
                                     "end": end - self.t0, "parent": parent,
                                     "attrs": attrs}) + "\n")
            for name, (calls, seconds) in sorted(self.aggregates.items()):
                fh.write(json.dumps({"aggregate": name, "calls": calls,
                                     "seconds": seconds}) + "\n")
