import dataclasses

import numpy as np

import pytest

from morseflow import catalog, flow
from morseflow.critical import (BOUNDARY_D, BOUNDARY_N, INTERIOR, CriticalSet,
                                find_critical_set)
from morseflow.errors import (CertificateViolation, FlowTimeout, NonTransverse,
                              StalledBranch)
from morseflow.fields import MorseField
from morseflow.flow import (CONVERGED, LEFT_DOMAIN, count_connecting_orbits,
                            integrate, intersection_pairing, stable_launches,
                            unstable_launches)
from morseflow.geometry import chart_distance, deck_apply, deck_sign
from morseflow.params import DEFAULT
from morseflow.pipeline import build_package
from morseflow.pseudogradient import (PseudoGradientField, _Perturbation, build_adapted,
                                     certify_adapted)
from conftest import drawn_sample
from test_geometry import path_orientation_sign

# the step tolerances used before branches ended at capture regions
TIGHT = DEFAULT.override(rtol=1e-10, atol=1e-12)


def _flipped(cp):
    """cp with its chosen orientation reversed: the first frame vector negated."""
    return dataclasses.replace(cp, frame=(-cp.frame[0], *cp.frame[1:]))


def _zero(pkg, kind, grading):
    return next(cp for cp in pkg.field_pos.crit.points
                if cp.kind == kind and cp.grading == grading)


def test_flow_evaluates_the_field_only_through_evaluate(packages, monkeypatch):
    # the benchmark's tracer counts field evaluations, and times them, by
    # wrapping `PseudoGradientField.evaluate`; a call of the field's kernel
    # past it would go uncounted
    calls = {"evaluate": 0, "kernel": 0}
    evaluate = PseudoGradientField.evaluate

    def counted(self, raw):
        calls["evaluate"] += 1
        return evaluate(self, raw)

    monkeypatch.setattr(PseudoGradientField, "evaluate", counted)
    pkg = packages["tilted_dome"]
    for side in (pkg.field_pos, pkg.field_neg):
        field = dataclasses.replace(side)  # its own kernel, and no branch yet
        kernel = field._point

        def counted_kernel(raw, kernel=kernel):
            calls["kernel"] += 1
            return kernel(raw)

        field._point = counted_kernel
        for cp in field.crit.points:
            if cp.grading == 1 and cp.kind in (INTERIOR, BOUNDARY_N):
                for reverse in (False, True):
                    flow._branches(field, cp, reverse)
    assert calls["kernel"] == calls["evaluate"] > 0


# `PseudoGradientField.evaluate` calls per `build_package` at seed 0, as
# BENCH_curve_following.json records them; nearly all are the branches'
# Dormand-Prince stages, so an integrator that spends more fails here
EVALUATIONS_PER_BUILD = {"interval": 4, "disk": 8, "annulus": 2030, "moebius": 1392,
                         "tilted_dome": 965}


@pytest.mark.parametrize("name", catalog.names())
def test_a_build_evaluates_the_field_no_more_than_benched(name, monkeypatch):
    calls = [0]
    evaluate = PseudoGradientField.evaluate

    def counted(self, raw):
        calls[0] += 1
        return evaluate(self, raw)

    monkeypatch.setattr(PseudoGradientField, "evaluate", counted)
    build_package(catalog.get(name))
    assert 0 < calls[0] <= EVALUATIONS_PER_BUILD[name]


def test_disk_descent_reaches_the_bottom(packages):
    pkg = packages["disk"]
    traj = integrate(pkg.field_pos, [0.5, 0.0])
    assert traj.termination == CONVERGED
    assert traj.target == _zero(pkg, BOUNDARY_N, 0).id


def test_annulus_generic_start_reaches_the_sink(packages):
    pkg = packages["annulus"]
    traj = integrate(pkg.field_pos, [0.3, 1.5])
    assert traj.target == _zero(pkg, BOUNDARY_N, 0).id


def test_annulus_axis_start_is_a_stable_manifold(packages):
    # (0, 1.5) lies exactly on the stable curve of the inner-top saddle
    pkg = packages["annulus"]
    traj = integrate(pkg.field_pos, [0.0, 1.5])
    assert traj.target == _zero(pkg, BOUNDARY_N, 1).id


def test_start_at_critical_point_idles(packages):
    pkg = packages["disk"]
    cp = _zero(pkg, BOUNDARY_N, 0)
    traj = integrate(pkg.field_pos, cp.coords)
    assert traj.termination == CONVERGED
    assert traj.target == cp.id
    assert len(traj.points) == 1


def test_objective_decreases_along_every_orbit(packages):
    for pkg in packages.values():
        for side, field in (("N", pkg.field_pos), ("D", pkg.field_neg)):
            for inc in pkg.incidences[side].values():
                for orbit in inc.orbits:
                    vals = [float(field.objective.value(x))
                            for x in orbit.trajectory.points]
                    assert np.all(np.diff(vals) < 1e-12)


def test_forced_counts_annulus(packages):
    pkg = packages["annulus"]
    inc = pkg.incidences["N"][(_zero(pkg, BOUNDARY_N, 1).id,
                               _zero(pkg, BOUNDARY_N, 0).id)]
    assert inc.count == 0 and inc.count_twisted == 0
    assert sorted(o.sign for o in inc.orbits) == [-1, 1]
    assert all(o.deck == 0 for o in inc.orbits)  # no deck map


def test_forced_counts_moebius(packages):
    pkg = packages["moebius"]
    inc = pkg.incidences["N"][(_zero(pkg, INTERIOR, 1).id,
                               _zero(pkg, BOUNDARY_N, 0).id)]
    assert inc.count == 0
    assert abs(inc.count_twisted) == 2
    assert len(inc.orbits) == 2
    # one orbit crosses the seam: odd deck index, orientation twist -1
    assert sorted(o.deck % 2 for o in inc.orbits) == [0, 1]


def test_forced_counts_dome(packages):
    pkg = packages["tilted_dome"]
    inc = pkg.incidences["N"][(_zero(pkg, INTERIOR, 2).id,
                               _zero(pkg, BOUNDARY_N, 1).id)]
    assert abs(inc.count) == 1 and len(inc.orbits) == 1


def test_orbit_twist_matches_path_sign(packages):
    pkg = packages["moebius"]
    chart = catalog.get("moebius").chart
    inc = pkg.incidences["N"][(_zero(pkg, INTERIOR, 1).id,
                               _zero(pkg, BOUNDARY_N, 0).id)]
    for orbit in inc.orbits:
        src = pkg.crit.by_id(orbit.source).coords
        poly = [np.asarray(src)] + list(orbit.trajectory.points)
        assert deck_sign(chart, orbit.deck) == path_orientation_sign(chart, poly)


def test_count_parity(packages):
    for pkg in packages.values():
        for side in ("N", "D"):
            for inc in pkg.incidences[side].values():
                assert (inc.count - inc.count_twisted) % 2 == 0
                assert abs(inc.count) <= len(inc.orbits)


def test_counts_stable_under_smaller_launch_radius(packages):
    tol = DEFAULT.override(r_launch=5e-5)
    for name in ("annulus", "moebius", "tilted_dome"):
        pkg = packages[name]
        fld = dataclasses.replace(pkg.field_pos, tol=tol)
        for (pid, qid), inc in pkg.incidences["N"].items():
            again = count_connecting_orbits(fld, fld.crit.by_id(pid), fld.crit.by_id(qid))
            assert again.count == inc.count
            assert again.count_twisted == inc.count_twisted


def test_branch_completeness(packages):
    for pkg in packages.values():
        for fld in (pkg.field_pos, pkg.field_neg):
            saddles = [cp for cp in fld.crit.points
                       if cp.kind in (INTERIOR, BOUNDARY_N) and cp.grading == 1]
            for cp in saddles:
                launches = unstable_launches(fld, cp)
                assert len(launches) == 2
                for _, x0 in launches:
                    traj = integrate(fld, x0)
                    assert traj.termination == CONVERGED


def _branch_signs(pkg, inc, source):
    """Map each orbit to its geometric branch (sign along a fixed direction)."""
    e_ref = np.array([1.0, 0.0])
    out = {}
    for orbit in inc.orbits:
        offset = orbit.trajectory.points[0] - np.asarray(source.coords)
        key = 1 if float(offset @ e_ref) > 0 else -1
        out[key] = orbit.sign
    return out


def test_orientation_flip_negates_orbit_signs(packages):
    pkg = packages["tilted_dome"]
    fld = pkg.field_pos
    n1 = _zero(pkg, BOUNDARY_N, 1)
    n0 = _zero(pkg, BOUNDARY_N, 0)
    c2 = _zero(pkg, INTERIOR, 2)
    flipped_crit = dataclasses.replace(fld.crit, points=tuple(
        _flipped(n1) if cp.id == n1.id else cp for cp in fld.crit.points))
    flipped = dataclasses.replace(fld, crit=flipped_crit)

    base_in = pkg.incidences["N"][(c2.id, n1.id)]
    base_out = pkg.incidences["N"][(n1.id, n0.id)]
    got_in = count_connecting_orbits(flipped, flipped_crit.by_id(c2.id),
                                     flipped_crit.by_id(n1.id))
    got_out = count_connecting_orbits(flipped, flipped_crit.by_id(n1.id),
                                      flipped_crit.by_id(n0.id))
    # the column into the flipped generator negates entrywise
    assert got_in.count == -base_in.count
    # the row out of it negates orbit by orbit (per geometric branch)
    base_map = _branch_signs(pkg, base_out, n1)
    got_map = _branch_signs(pkg, got_out, n1)
    assert got_map == {k: -v for k, v in base_map.items()}
    # totals through the flipped generator are gauge invariant
    assert got_in.count * got_out.count == base_in.count * base_out.count


def test_tolerances_come_only_from_the_field(packages):
    # a tolerance set passed by position is an error, not read as the
    # reverse flag or as an attempt count
    fld = packages["disk"].field_pos
    with pytest.raises(TypeError):
        integrate(fld, [0.5, 0.0], DEFAULT)
    with pytest.raises(TypeError):
        certify_adapted(fld, DEFAULT)


def test_timed_out_branches_raise(packages):
    # a relative curve that times out used to be read as a polyline, so the
    # pairing returned a number where the orbit count raised
    pkg = packages["moebius"]
    tol = DEFAULT.override(max_steps=20)
    field_pos = dataclasses.replace(pkg.field_pos, tol=tol)
    field_neg = dataclasses.replace(pkg.field_neg, tol=tol)
    rep = pkg.pairing[1]
    p, p_abs = pkg.crit.by_id(rep.rows[0]), pkg.crit.by_id(rep.cols[0])
    assert field_neg.crit.by_id(p.id).kind == INTERIOR
    with pytest.raises(FlowTimeout):
        intersection_pairing(field_neg, field_pos, p, p_abs)
    source, sink = next(iter(pkg.incidences["N"]))
    with pytest.raises(FlowTimeout):
        count_connecting_orbits(field_pos, field_pos.crit.by_id(source),
                                field_pos.crit.by_id(sink))


def test_crossing_only_on_a_deck_image():
    # the absolute polyline lies one sheet to the left; only its image T^1,
    # which flips v, meets the relative one, at (0.5, -0.2)
    chart = catalog.get("moebius").chart
    rel = np.array([[0.5, -0.5], [0.5, 0.5]])
    ab = np.array([[0.3 - 2 * np.pi, 0.2], [0.7 - 2 * np.pi, 0.2]])
    assert flow._polyline_crossings(rel, ab) == []
    (hit,) = flow._cover_crossings(chart, rel, ab)
    point, dir_rel, dir_abs, _ = hit
    assert np.allclose(point, [0.5, -0.2])
    assert np.allclose(dir_abs, [1.0, 0.0])  # dT^1 of (1, 0)
    # det(o_rel, dT o_abs), the sign the pairing gives the crossing
    assert np.linalg.det(np.stack([dir_rel, dir_abs], axis=1)) == pytest.approx(-1.0)


def test_wall_landing_reuses_the_first_stage(packages, monkeypatch):
    # a backward branch of the ascent field exits through the wall; every
    # step of the landing starts from the first stage already in hand, so
    # each Dormand-Prince step costs six evaluations and each landing one
    # more, at the point where it lands; the start costs two, its first
    # stage and the starting step's probe
    fld = packages["annulus"].field_neg
    cp = next(c for c in fld.crit.points if c.kind == BOUNDARY_N)
    ((_, x0),) = stable_launches(fld, cp)
    counts = {"evaluate": 0, "step": 0, "landing": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(PseudoGradientField, "evaluate",
                        counted("evaluate", PseudoGradientField.evaluate))
    monkeypatch.setattr(flow, "_rk_step", counted("step", flow._rk_step))
    monkeypatch.setattr(flow, "_pull_inside", counted("landing", flow._pull_inside))
    traj = integrate(fld, x0, reverse=True)
    assert traj.termination == LEFT_DOMAIN
    assert counts["landing"] >= 1
    assert counts["evaluate"] == 2 + 6 * counts["step"] + counts["landing"]


def test_wall_landing_takes_few_steps(packages, monkeypatch):
    # the landing's regula falsi stops at the first step within 1e-12 of the
    # wall; bisecting the step fraction to its last float took 55 steps here
    fld = packages["annulus"].field_neg
    cp = next(c for c in fld.crit.points if c.kind == BOUNDARY_N)
    ((_, x0),) = stable_launches(fld, cp)
    starts = []
    rk_step = flow._rk_step

    def recorded(deriv, x, h, k1):
        starts.append(tuple(x))
        return rk_step(deriv, x, h, k1)

    monkeypatch.setattr(flow, "_rk_step", recorded)
    traj = integrate(fld, x0, reverse=True)
    assert traj.termination == LEFT_DOMAIN
    # every step from where the landing starts: the trial step that left the
    # manifold and the landing's four
    assert starts.count(starts[-1]) == 5


def test_wall_guard_takes_no_step_twice(packages, monkeypatch):
    # the landing reuses the step that lands, and a secant or midpoint step
    # that rounds to one already taken is not taken again
    fld = packages["annulus"].field_neg
    cp = next(c for c in fld.crit.points if c.kind == BOUNDARY_N)
    ((_, x0),) = stable_launches(fld, cp)
    steps, landings = [], []
    rk_step, pull_inside = flow._rk_step, flow._pull_inside

    def recorded(deriv, x, h, k1):
        steps.append((tuple(x), h))
        return rk_step(deriv, x, h, k1)

    def landed(chart, x):
        landings.append(x)
        return pull_inside(chart, x)

    monkeypatch.setattr(flow, "_rk_step", recorded)
    monkeypatch.setattr(flow, "_pull_inside", landed)
    traj = integrate(fld, x0, reverse=True)
    assert traj.termination == LEFT_DOMAIN
    assert landings
    assert len(set(steps)) == len(steps)


def test_time_direction_decides_whether_leaving_is_an_end(packages, monkeypatch):
    # a stable manifold followed backward may leave through the wall; the
    # same path followed forward, along the negated field, may not, since a
    # certified field's forward flow stays inside.  The negated field's sinks
    # were never checked, so it is followed without capture regions
    fld = packages["annulus"].field_neg
    cp = next(c for c in fld.crit.points if c.kind == BOUNDARY_N)
    ((_, x0),) = stable_launches(fld, cp)
    back = integrate(fld, x0, reverse=True)
    assert back.termination == LEFT_DOMAIN and back.target is None
    assert max(float(con.value(back.end)) for con in fld.chart.constraints) > -1e-9
    negated = dataclasses.replace(fld)
    point = negated._point
    negated._point = lambda raw: [-c for c in point(raw)]
    monkeypatch.setattr(PseudoGradientField, "capture_regions",
                        lambda self, reverse=False: ())
    with pytest.raises(CertificateViolation, match="pushed out of the manifold"):
        integrate(negated, x0)
    with pytest.raises(TypeError):
        integrate(fld, x0, reverse=True, allow_exit=True)


def test_captured_branches_end_on_the_sink(packages):
    # the moebius band's two forward orbits end at the N minimum, one of them
    # at its image across the seam
    pkg = packages["moebius"]
    chart = pkg.field_pos.chart
    sink = _zero(pkg, BOUNDARY_N, 0)
    inc = pkg.incidences["N"][(_zero(pkg, INTERIOR, 1).id, sink.id)]
    images = set()
    for orbit in inc.orbits:
        traj = orbit.trajectory
        j = orbit.deck
        assert np.array_equal(traj.points[-1], deck_apply(chart, j, sink.coords))
        images.add(j)
    assert len(images) == 2
    # the dome's backward branch ends at the maximum, which becomes the first
    # sample of the stored source-to-sink orbit
    pkg = packages["tilted_dome"]
    top = _zero(pkg, INTERIOR, 2)
    (orbit,) = pkg.incidences["N"][(top.id, _zero(pkg, BOUNDARY_N, 1).id)].orbits
    assert np.array_equal(orbit.trajectory.points[0], top.coords)


def test_capture_keeps_orbit_signs_and_twists(packages, monkeypatch):
    # without capture regions, each branch runs to the speed rule, which
    # needs the tighter tolerances
    monkeypatch.setattr(PseudoGradientField, "capture_regions",
                        lambda self, reverse=False: ())
    for name in ("moebius", "tilted_dome"):
        pkg = packages[name]
        fld = dataclasses.replace(pkg.field_pos, tol=TIGHT)
        for (pid, qid), inc in pkg.incidences["N"].items():
            again = count_connecting_orbits(fld, fld.crit.by_id(pid), fld.crit.by_id(qid))
            assert [(o.sign, o.deck) for o in again.orbits] == \
                [(o.sign, o.deck) for o in inc.orbits], name


@pytest.mark.parametrize("k", [1, -3])
def test_reversed_orbit_moves_each_sample_by_the_deck_map(packages, k):
    # a backward branch from q that reaches the deck image T^k p is stored
    # moved by T^-k, with the bits of deck_apply at each sample; no catalog
    # orbit needs the move, so a branch across k seams is made here
    pkg = packages["moebius"]
    fld, chart = pkg.field_pos, pkg.field_pos.chart
    q = _zero(pkg, INTERIOR, 1)
    p = dataclasses.replace(_zero(pkg, BOUNDARY_N, 0),
                            frame=((1.0, 0.0), (0.0, 1.0)))
    end = deck_apply(chart, k, p.coords)
    points = q.coords + np.linspace(0.0, 1.0, 7)[:, None] * (end - q.coords)
    traj = flow.Trajectory(points, CONVERGED, p.id)
    _, deck, forward = flow._reversed_orbit(fld, p, q, q.coords + [1e-4, 0.0], traj)
    assert deck == -k  # the stored orbit ends at T^-k q
    want = np.array([deck_apply(chart, -k, x) for x in points[::-1]])
    assert forward.points.tobytes() == want.tobytes()
    assert np.array_equal(forward.points[0], p.coords)
    assert np.array_equal(traj.points, points)  # the branch itself is not moved


def _swirled(field, center, tol):
    """A copy of a field on a chart without a deck map, under tol, plus a
    rotation about center, strong enough that the bowl below rises along the
    field next to its minimum, which still attracts as a spiral."""
    out = dataclasses.replace(field, tol=tol)
    point, many = out._point, out._eval_canonical_many

    def swirled_point(raw):
        (d0, d1), (v0, v1) = (np.array(raw) - center).tolist(), point(raw)
        return [v0 + 10.0 * -d1, v1 + 10.0 * d0]

    def swirled_many(x, grad, geometry):
        d = x - center
        return many(x, grad, geometry) + 10.0 * np.stack([-d[:, 1], d[:, 0]], axis=1)

    out._point, out._eval_canonical_many = swirled_point, swirled_many
    return out


def test_sink_failing_its_capture_check_converges_by_the_speed_rule():
    # f = (x^2 + 4 y^2) / 2 + x / 10 + y / 20 on the disk, minimum (-0.1, -0.0125)
    chart = catalog.get("disk").chart
    bowl = MorseField(
        value=lambda x: (0.5 * (x[..., 0] ** 2 + 4.0 * x[..., 1] ** 2)
                         + 0.1 * x[..., 0] + 0.05 * x[..., 1]),
        gradient=lambda x: np.stack([x[..., 0] + 0.1, 4.0 * x[..., 1] + 0.05], axis=-1),
        hessian=lambda x: np.ones(np.shape(x)[:-1] + (1, 1)) * np.diag([1.0, 4.0]))
    crit = find_critical_set(bowl, chart)
    bottom = next(cp for cp in crit.points if cp.kind == INTERIOR)
    plain = build_adapted(bowl, chart, crit, sample=drawn_sample(bowl, chart, crit))
    assert [r.sink.id for r in plain.capture_regions()] == [bottom.id]
    swirled = _swirled(plain, bottom.coords, TIGHT)
    assert swirled.capture_regions() == ()
    traj = integrate(swirled, bottom.coords + [0.03, 0.01])
    assert traj.termination == CONVERGED and traj.target == bottom.id
    assert chart_distance(chart, traj.end, bottom.coords) <= TIGHT.r_launch / 10
    assert not np.array_equal(traj.end, bottom.coords)


@pytest.mark.parametrize("name, height", [("tilted_dome", 0.5), ("moebius", -0.5)])
def test_non_finite_field_raises_at_the_step(packages, name, height):
    # the objective's gradient is NaN below a height the branch descends through
    field = packages[name].field_pos
    objective = field.objective
    nan_points = []

    def gradient(x):
        out = np.asarray(objective.gradient(x), dtype=float)
        below = np.asarray(x)[..., 1:2] < height
        if below.ndim == 1 and below[0]:
            nan_points.append(x)
        return np.where(below, np.nan, out)

    broken = dataclasses.replace(field, objective=MorseField(
        objective.value, gradient, objective.hessian))
    saddle = next(cp for cp in broken.crit.points if cp.grading == 1)
    _, start = unstable_launches(broken, saddle)[0]
    with pytest.raises(CertificateViolation, match="not finite near .* at step"):
        integrate(broken, start)
    # one Dormand-Prince step evaluates six new stages
    assert 1 <= len(nan_points) <= 6


# --- the flow's errors name the branch or the pair, and the field's seed -----


def _seeded(pkg, tol=DEFAULT):
    """Copies of the package's descent and ascent fields at perturbation
    seeds 7 and 8."""
    return (dataclasses.replace(pkg.field_pos, tol=tol,
                                perturbation=_Perturbation(pkg.entry.chart, pkg.crit, 7)),
            dataclasses.replace(pkg.field_neg, tol=tol,
                                perturbation=_Perturbation(pkg.entry.chart, pkg.crit, 8)))


def _ending_at(target):
    """A stand-in for `integrate` whose trajectories converge at target at once."""
    return lambda field, x0, **kw: flow.Trajectory(np.array([x0]), CONVERGED, target)


def test_timed_out_branch_names_itself_and_the_seed(packages):
    pkg = packages["moebius"]
    fld, _ = _seeded(pkg, DEFAULT.override(max_steps=20))
    ((source, sink),) = pkg.incidences["N"]
    with pytest.raises(FlowTimeout) as err:
        count_connecting_orbits(fld, fld.crit.by_id(source), fld.crit.by_id(sink))
    assert str(err.value) == \
        f"branch 1 from generator {source} timed out (perturb_seed 7)"


def test_stalled_branch_names_itself_and_the_seed(packages, monkeypatch):
    pkg = packages["moebius"]
    fld, _ = _seeded(pkg)
    ((source, sink),) = pkg.incidences["N"]
    monkeypatch.setattr(flow, "integrate", _ending_at(source))
    with pytest.raises(StalledBranch) as err:
        count_connecting_orbits(fld, fld.crit.by_id(source), fld.crit.by_id(sink))
    assert str(err.value) == (
        f"branch 1 from generator {source} ends where it started: "
        "r_launch = 0.0001 does not leave it (perturb_seed 7)")


def test_orbit_between_equal_gradings_names_the_pair_and_the_seed(packages,
                                                                   monkeypatch):
    pkg = packages["annulus"]
    fld, _ = _seeded(pkg)
    source, sink = _zero(pkg, BOUNDARY_N, 1), _zero(pkg, BOUNDARY_N, 0)
    other = _zero(pkg, BOUNDARY_D, 1)
    monkeypatch.setattr(flow, "integrate", _ending_at(other.id))
    with pytest.raises(NonTransverse) as err:
        count_connecting_orbits(fld, source, sink)
    assert str(err.value) == (
        f"branch 1 from generator {source.id} ends at generator {other.id} "
        "of equal grading (perturb_seed 7)")


def test_pairing_errors_name_the_pair_and_both_seeds(packages, monkeypatch):
    pkg = packages["moebius"]
    field_pos, field_neg = _seeded(pkg)
    rep = pkg.pairing[1]
    p, p_abs = pkg.crit.by_id(rep.rows[0]), pkg.crit.by_id(rep.cols[0])
    assert p.id == p_abs.id  # the saddle carries both invariant manifolds
    seeds = "(perturb_seed 8 ascent, 7 descent)"
    # the ascent field's unstable frame turned onto the descent field's
    frame = field_pos.crit.by_id(p.id).frame
    tangent = CriticalSet(field_neg.crit.dim, tuple(
        dataclasses.replace(cp, frame=frame) if cp.id == p.id else cp
        for cp in field_neg.crit.points))
    with pytest.raises(NonTransverse) as err:
        intersection_pairing(dataclasses.replace(field_neg, crit=tangent),
                             field_pos, p, p_abs)
    assert str(err.value) == \
        f"invariant manifolds of generator {p.id} tangent at the shared point {seeds}"
    # a grazing crossing away from the shared point
    away, e = np.array([3.0, 0.5]), np.array([1.0, 0.0])
    monkeypatch.setattr(flow, "_cover_crossings",
                        lambda chart, pr, pa: [(away, e, e, 1e-6)])
    with pytest.raises(NonTransverse) as err:
        intersection_pairing(field_neg, field_pos, p, p_abs)
    assert str(err.value) == (f"near-tangential crossing between generators "
                              f"{p.id} and {p_abs.id} {seeds}")
