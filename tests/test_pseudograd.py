import collections
import dataclasses
import math

import numpy as np
import pytest

from morseflow import catalog, pseudogradient
from morseflow.critical import BOUNDARY_D, BOUNDARY_N, INTERIOR, CriticalSet
from morseflow.geometry import MetricField, boundary_distance, chart_distance
from morseflow.params import DEFAULT
from morseflow.pipeline import _setup
from morseflow.fields import halton_sequence
from morseflow.pseudogradient import (PseudoGradientField, TangencyPatch,
                                      build_adapted, certify_adapted)

from conftest import drawn_sample, evaluate_many


def test_certificates_pass_with_stated_margins(packages):
    for name, pkg in packages.items():
        for fld in (pkg.field_pos, pkg.field_neg):
            cert = fld.certificate
            assert cert.passed, f"{name}: {cert.as_dict()}"
            assert cert.descent_margin < -1e-6
            assert cert.inward_margin > 1e-6
            assert cert.interior_definiteness < 0
            assert cert.tangency_definiteness < 0


def test_raw_gradient_fails_inwardness_on_annulus(packages):
    pkg = packages["annulus"]
    base = pkg.field_pos
    raw = PseudoGradientField(
        chart=base.chart, metric=base.metric, objective=base.objective,
        crit=base.crit, r_n=base.r_n, delta_c=0.0)
    cert = certify_adapted(raw, sample=drawn_sample(raw.objective, raw.chart, raw.metric,
                                                    raw.crit))
    assert cert.inward_margin < 0  # -grad f points outward near the tangency points


def test_field_vanishes_exactly_at_build_zeros(packages):
    for pkg in packages.values():
        for fld in (pkg.field_pos, pkg.field_neg):
            for cp in fld.crit.points:
                if cp.kind in (INTERIOR, BOUNDARY_N):
                    assert np.linalg.norm(fld.evaluate(cp.coords)) < 1e-10
                else:
                    assert np.linalg.norm(fld.evaluate(cp.coords)) > 1e-3


def test_hyperbolic_with_unstable_dimension_equal_grading(packages):
    for pkg in packages.values():
        for fld in (pkg.field_pos, pkg.field_neg):
            for cp in fld.crit.points:
                if cp.kind not in (INTERIOR, BOUNDARY_N):
                    continue
                lam = np.linalg.eigvals(fld.linearization(cp.coords))
                assert np.min(np.abs(lam.real)) > 1e-8
                assert int(np.sum(lam.real > 0)) == cp.grading


def test_moebius_patch_keeps_field_tangent_to_edge(packages):
    fld = packages["moebius"].field_pos
    # pure model zone: exactly tangent to the wall
    for du in np.linspace(-0.07, 0.07, 13):
        vec = fld.evaluate([math.pi + du, -1.0])
        assert abs(vec[1]) < 1e-12
    # blend zone: never outward
    for du in np.linspace(-0.14, 0.14, 13):
        vec = fld.evaluate([math.pi + du, -1.0])
        assert vec[1] > -1e-12
    assert np.linalg.norm(fld.evaluate([math.pi, -1.0])) < 1e-12


def test_reversed_build_patches_sit_at_former_type_d_points(packages):
    for name, pkg in packages.items():
        entry = catalog.get(name)
        d_points = [cp for cp in pkg.crit.points if cp.kind == BOUNDARY_D]
        centers = [patch.center for patch in pkg.field_neg.patches]
        assert len(centers) == len(d_points)
        for cp in d_points:
            assert any(chart_distance(entry.chart, c, cp.coords) < 1e-9
                       for c in centers)


def test_interval_field_shape(packages):
    fld = packages["interval"].field_pos
    assert fld.evaluate([0.5]) == pytest.approx([-1.0])
    # near the tangency point at the origin the model field is linear
    assert fld.evaluate([0.0]) == pytest.approx([0.0], abs=1e-15)
    assert fld.evaluate([0.01])[0] == pytest.approx(-0.01, rel=1e-6)


def test_descent_quadratic_form_negative_definite(packages):
    pkg = packages["tilted_dome"]
    fld = pkg.field_pos
    cp = next(p for p in fld.crit.points if p.kind == INTERIOR)
    hess = np.asarray(fld.objective.hessian(cp.coords))
    lin = fld.linearization(cp.coords)
    form = 0.5 * (hess @ lin + lin.T @ hess)
    assert np.max(np.linalg.eigvalsh(form)) < 0


def test_flow_enters_interior_from_boundary(packages):
    from morseflow.critical import boundary_components
    for name, pkg in packages.items():
        entry = catalog.get(name)
        if entry.chart.dim != 2:
            continue
        fld = pkg.field_pos
        n_pts = [cp for cp in fld.crit.points if cp.kind == BOUNDARY_N]
        for loop in boundary_components(entry.chart, 40):
            for x in loop:
                if any(chart_distance(entry.chart, x, cp.coords) < fld.r_n
                       for cp in n_pts):
                    continue
                step = 1e-4 * fld.evaluate(x)
                assert boundary_distance(entry.chart, x + step) \
                    > boundary_distance(entry.chart, x)


def test_bulk_region_is_plain_descent(packages):
    fld = packages["annulus"].field_pos
    assert fld.evaluate([1.5, 0.0]) == pytest.approx([0.0, -1.0], abs=1e-12)


@pytest.mark.parametrize("name", ["disk", "annulus", "moebius"])
@pytest.mark.parametrize("side", ["field_pos", "field_neg"])
def test_collar_push_is_flat_at_the_wall(packages, name, side):
    # at a wall point outside the patches where -grad f points outward
    # (nu < 0) and the cap is eps_n, the outward component of the field is
    # -(1 - s) nu - s eps_n for the push factor s at depth d: flat at the
    # wall, (1 - s) = (d / delta_c)^2, where a linear ramp moves it by
    # (|nu| + eps_n) d / delta_c
    pkg = packages[name]
    field = getattr(pkg, side)
    keep = pseudogradient._wall_sample(field, pkg.sample)
    wall, normals = pkg.sample.wall[keep], pkg.sample.normals[keep]
    grad = np.asarray(field.objective.gradient(wall), dtype=float)
    nu = np.sum(grad * normals, axis=1)
    g_t = np.linalg.norm(nu[:, None] * normals - grad, axis=1)
    rows = np.flatnonzero((nu < -0.05) & (g_t * g_t >= 2.0 * field.tol.eps_n * -nu))
    j = rows[len(rows) // 2]
    x, n = wall[j], normals[j]
    eps = 1e-2 * field.delta_c
    outward = [float(np.dot(field.evaluate(x - k * eps * n), n)) for k in (0, 1, 2)]
    moved = outward[1] - outward[0]
    linear = (-nu[j] + field.tol.eps_n) * eps / field.delta_c
    assert moved == pytest.approx(linear * eps / field.delta_c, rel=0.01)
    assert (outward[2] - outward[0]) / moved == pytest.approx(4.0, rel=0.01)
    # the batch evaluator gives the same bits across the collar, beyond it
    # and just outside the wall
    depths = np.array([-1.0, 0.0, 1.0, 2.0, 50.0, 100.0, 150.0]) * eps
    points = x - depths[:, None] * n
    assert (evaluate_many(field, points).tobytes()
            == np.array([field.evaluate(p) for p in points]).tobytes())


def test_halton_points_fill_unit_square():
    pts = halton_sequence(512, 2)
    assert pts.shape == (512, 2)
    assert pts.min() > 0.0 and pts.max() < 1.0
    # low-discrepancy: every quadrant is hit roughly equally
    quad = (pts[:, 0] > 0.5).astype(int) * 2 + (pts[:, 1] > 0.5).astype(int)
    counts = np.bincount(quad, minlength=4)
    assert counts.min() > 100


def reference_halton(count, dim, skip=20):
    """The radical inverse digit by digit: digit k of each index, lowest
    first, adds its value times base**-(k+1), the weight divided down by the
    base once per digit."""
    idx = np.arange(skip + 1, skip + count + 1, dtype=np.int64)
    out = np.zeros((count, dim))
    for d, b in enumerate((2, 3, 5)[:dim]):
        i = idx.copy()
        f = 1.0
        r = np.zeros(count)
        while i.max() > 0:
            f /= b
            r += f * (i % b)
            i //= b
        out[:, d] = r
    return out


def _powers_of_the_bases():
    """(count, skip) whose top index skip + count is an exact power of a
    base, at and around the low digits `halton_sequence` tables."""
    for b, top_digits in ((2, 15), (3, 10), (5, 7)):
        for k in range(1, top_digits + 1):
            top = b ** k
            for count in sorted({1, min(7, top), top}):
                yield count, top - count


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_halton_is_the_digit_by_digit_radical_inverse(dim):
    cases = [(1, 0), (1, 20), (10_000, 20), (3, 4093), (5, 2185), (2, 3123),
             *_powers_of_the_bases()]
    for count, skip in cases:
        got, want = halton_sequence(count, dim, skip), reference_halton(count, dim, skip)
        assert got.tobytes() == want.tobytes(), (count, skip)


@pytest.mark.parametrize("name", ["disk", "annulus"])
def test_halton_chunks_of_the_manifold_sample(packages, name, monkeypatch):
    # the chunks `_manifold_sample` draws, at the skips it draws them from
    drawn = []
    halton = pseudogradient.halton_sequence

    def recorded(count, dim, skip=20):
        out = halton(count, dim, skip)
        drawn.append((count, dim, skip, out))
        return out

    monkeypatch.setattr(pseudogradient, "halton_sequence", recorded)
    pkg = packages[name]
    tol = DEFAULT
    interior = pseudogradient._manifold_sample(pkg.entry.chart, pkg.crit,
                                               tol.cert_interior_samples, tol.r_excl, tol)
    assert interior.tobytes() == pkg.sample.interior.tobytes()
    assert len(drawn) >= 2  # the first chunk falls short of the count
    for count, dim, skip, out in drawn:
        assert out.tobytes() == reference_halton(count, dim, skip).tobytes()


def test_perturbed_field_still_certifies(packages):
    entry = catalog.get("annulus")
    crit = packages["annulus"].crit
    fld = build_adapted(entry.field, entry.chart, crit, entry.metric, perturb_seed=5,
                        sample=drawn_sample(entry.field, entry.chart, entry.metric, crit))
    assert fld.certificate.passed
    # the perturbation vanishes on the boundary and near critical points
    plain = dataclasses.replace(fld, perturb_seed=None)
    assert np.array_equal(fld.evaluate([0.0, -2.0]), plain.evaluate([0.0, -2.0]))
    probe = np.subtract(fld.evaluate([1.5, 0.2]), plain.evaluate([1.5, 0.2]))
    assert 0.0 < np.linalg.norm(probe) < 2e-3


def test_a_field_is_a_value_of_its_eight_inputs():
    assert [f.name for f in dataclasses.fields(PseudoGradientField) if f.init] == [
        "chart", "metric", "objective", "crit", "r_n", "delta_c", "perturb_seed", "tol"]
    # a patch is data: its wall is an index into the chart's constraints
    assert [f.name for f in dataclasses.fields(TangencyPatch)] == [
        "center", "tangent", "h", "piece", "grad_norm_at_center"]


def _seed_one_disk(packages):
    entry = catalog.get("disk")
    crit = packages["disk"].crit
    return build_adapted(entry.field, entry.chart, crit, entry.metric, perturb_seed=1,
                         sample=drawn_sample(entry.field, entry.chart, entry.metric, crit))


def test_an_unperturbed_copy_evaluates_as_a_fresh_field(packages):
    field = _seed_one_disk(packages)
    copy = dataclasses.replace(field, perturb_seed=None)
    fresh = PseudoGradientField(chart=field.chart, metric=field.metric,
                                objective=field.objective, crit=field.crit,
                                r_n=field.r_n, delta_c=field.delta_c, tol=field.tol)
    for point in ([0.1, 0.2], [-0.4, 0.3], [0.3, -0.5]):
        assert not np.array_equal(field.evaluate(point), fresh.evaluate(point))
        assert np.array_equal(np.array(copy.evaluate(point)).view(np.int64),
                              np.array(fresh.evaluate(point)).view(np.int64))
        assert np.array_equal(evaluate_many(copy, [point]).view(np.int64),
                              evaluate_many(fresh, [point]).view(np.int64))


def test_a_copy_takes_its_patches_from_its_critical_set(cylinder):
    from morseflow.critical import find_critical_set
    from morseflow.params import DEFAULT
    crit = find_critical_set(cylinder.field, cylinder.chart, cylinder.metric, DEFAULT)
    field = build_adapted(cylinder.field, cylinder.chart, crit, cylinder.metric,
                          sample=drawn_sample(cylinder.field, cylinder.chart,
                                              cylinder.metric, crit))
    n_points = [cp for cp in crit.points if cp.kind == BOUNDARY_N]
    assert len(field.patches) == len(n_points) == 2
    assert dataclasses.replace(field, crit=CriticalSet(2, ())).patches == ()
    last = dataclasses.replace(field, crit=CriticalSet(2, (n_points[-1],)))
    assert [p.center.tolist() for p in last.patches] == [n_points[-1].coords.tolist()]


def test_a_copy_is_uncertified(packages):
    field = packages["disk"].field_pos
    assert field.certificate.passed
    assert dataclasses.replace(field, r_n=0.01).certificate is None


def test_empty_wall_sample_has_a_nan_inward_margin(packages):
    # a patch as wide as the interval leaves no wall point to test, which is
    # no evidence for the inward condition
    pkg = packages["interval"]
    wide = dataclasses.replace(pkg.field_pos, r_n=2.0)
    cert = certify_adapted(wide, sample=pkg.sample)
    assert cert.boundary_samples == 0
    assert math.isnan(cert.inward_margin) and not cert.passed


def _analysis_setup(packages, request, name):
    """The set-up of an analysis of a catalog entry, of the flip = +1
    `cylinder`, or of the disk under a scaled metric ("disk-scaled")."""
    if name in packages:
        pkg = packages[name]
        return _setup(pkg.entry, DEFAULT, pkg.crit, pkg.sample)
    entry = (request.getfixturevalue("cylinder") if name == "cylinder" else
             dataclasses.replace(catalog.get("disk"), metric=MetricField.scaled(2, 2.0)))
    return _setup(entry, DEFAULT)


# a line, a strip with and without a fold, two walls, and perturbed fields on
# a strip and off one
@pytest.mark.parametrize("name, seed", [
    *(pytest.param(name, 0, id=name)
      for name in ("interval", "moebius", "tilted_dome", "annulus", "cylinder")),
    *(pytest.param(name, 1, id=f"{name}-seed1") for name in ("moebius", "tilted_dome"))])
def test_point_kernel_reads_any_numbers_as_their_floats(packages, request, name, seed):
    # the integrator passes lists of Python floats, which the kernel reads as
    # they are and answers with a list of floats; a list of ints, a list of
    # numpy float64 scalars and a tuple give the same bits in an array, and a
    # coordinate that is not finite gives NaN
    setup = _analysis_setup(packages, request, name)
    field = setup.build("N", seed or None)
    dim = field.chart.dim
    whole = [[0], [1]] if dim == 1 else [[0, 0], [1, 0], [3, -1], [-4, 1], [7, 0]]
    # next to each critical point: in its patch or its perturbation bump
    near = [(cp.coords + 0.07).tolist() for cp in setup.crit.points]
    points = whole + setup.sample.interior[:6].tolist() + near
    for x in points:
        floats = field.evaluate([float(c) for c in x])
        assert type(floats) is list and all(type(c) is float for c in floats)
        want = np.array(floats).tobytes()
        assert np.asarray(field.evaluate(list(x))).tobytes() == want
        assert field.evaluate([np.float64(c) for c in x]).tobytes() == want
        assert field.evaluate(tuple(x)).tobytes() == want
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(dim):
            x = [0.5] * dim
            x[i] = bad
            assert np.isnan(field.evaluate(x)).all()


def _counted_copy(field, counts):
    """A copy of the field whose analysed function's callables (f's, of which
    an ascent field descends the negation), metric and wall readers count
    their calls into counts; the copy builds its own kernel."""
    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    chart, source = field.chart, field.objective.negation_of or field.objective
    f = dataclasses.replace(source, value=counted("value", source.value),
                            gradient=counted("gradient", source.gradient),
                            hessian=counted("hessian", source.hessian))
    objective = f if field.objective.negation_of is None else f.negated()
    walls = tuple(dataclasses.replace(con, read=counted(("read", i), con.read))
                  for i, con in enumerate(chart.constraints))
    return dataclasses.replace(
        field, objective=objective, chart=dataclasses.replace(chart, constraints=walls),
        metric=dataclasses.replace(field.metric,
                                   matrix=counted("matrix", field.metric.matrix)))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", catalog.names() + ["cylinder", "disk-scaled"])
def test_one_kernel_call_reads_each_input_once(packages, request, name, seed):
    # `objective_evals` counts the calls of the analysed function's own
    # callables from outside, and the flow's cost rests on one gradient, one
    # metric matrix (none for the identity) and one read of each wall per
    # evaluation, wherever the point lies: in the collar, a patch, near a
    # perturbation center, or off the strip's period
    setup = _analysis_setup(packages, request, name)
    chart = setup.entry.chart
    dim = chart.dim
    offsets = np.array([[0.0] * dim, [1e-3] * dim, [-0.04] * dim, [0.12] * dim])
    points = np.concatenate([setup.sample.interior[:6], setup.sample.wall[::250]]
                            + [cp.coords + offsets for cp in setup.crit.points])
    if chart.deck is not None:
        points = np.concatenate([points + [k * chart.deck.period, 0.0] for k in (-1, 0, 3)])
    for side in ("N", "D"):
        counts = collections.Counter()
        field = _counted_copy(setup.build(side, seed or None), counts)
        assert (field._perturb is None) == (seed == 0)
        want = {"gradient": 1, **{("read", i): 1 for i in range(len(chart.constraints))}}
        if not field.metric.identity:
            want["matrix"] = 1
        for x in points.tolist():
            counts.clear()
            assert type(field.evaluate(x)) is list
            assert counts == want
