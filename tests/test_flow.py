import dataclasses

import numpy as np

import pytest

from morseflow import catalog
from morseflow.critical import BOUNDARY_N, INTERIOR
from morseflow.errors import FlowTimeout
from morseflow.flow import (CONVERGED, count_connecting_orbits, integrate,
                            intersection_pairing, unstable_launches)
from morseflow.geometry import path_orientation_sign
from morseflow.params import DEFAULT


def _zero(pkg, kind, grading):
    return next(cp for cp in pkg.field_pos.crit.points
                if cp.kind == kind and cp.grading == grading)


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
    assert len(traj.times) == 1


def test_objective_decreases_along_every_orbit(packages):
    for pkg in packages.values():
        for side in ("N", "D"):
            for inc in pkg.incidences[side].values():
                for orbit in inc.orbits:
                    vals = orbit.trajectory.values
                    assert np.all(np.diff(vals) < 1e-12)


def test_forced_counts_annulus(packages):
    pkg = packages["annulus"]
    inc = pkg.incidences["N"][(_zero(pkg, BOUNDARY_N, 1).id,
                               _zero(pkg, BOUNDARY_N, 0).id)]
    assert inc.count == 0 and inc.count_twisted == 0
    assert sorted(o.sign for o in inc.orbits) == [-1, 1]
    assert all(o.twist == 1 for o in inc.orbits)


def test_forced_counts_moebius(packages):
    pkg = packages["moebius"]
    inc = pkg.incidences["N"][(_zero(pkg, INTERIOR, 1).id,
                               _zero(pkg, BOUNDARY_N, 0).id)]
    assert inc.count == 0
    assert abs(inc.count_twisted) == 2
    assert len(inc.orbits) == 2
    assert sorted(o.twist for o in inc.orbits) == [-1, 1]


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
        src = pkg.crit.by_id(orbit.source).point.coords
        poly = [np.asarray(src)] + list(orbit.trajectory.points)
        assert orbit.twist == path_orientation_sign(chart, poly)


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
        for (pid, qid), inc in pkg.incidences["N"].items():
            again = count_connecting_orbits(
                pkg.field_pos, pkg.field_pos.crit.by_id(pid),
                pkg.field_pos.crit.by_id(qid), tol)
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
        offset = orbit.trajectory.points[0] - np.asarray(source.point.coords)
        key = 1 if float(offset @ e_ref) > 0 else -1
        out[key] = orbit.sign
    return out


def test_orientation_flip_negates_orbit_signs(packages):
    pkg = packages["tilted_dome"]
    fld = pkg.field_pos
    n1 = _zero(pkg, BOUNDARY_N, 1)
    n0 = _zero(pkg, BOUNDARY_N, 0)
    c2 = _zero(pkg, INTERIOR, 2)
    flipped_crit = fld.crit.replace_point(n1.flipped())
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


def test_trajectory_records_monotone_time(packages):
    traj = integrate(packages["disk"].field_pos, [0.2, 0.3])
    assert np.all(np.diff(traj.times) > 0)
    assert traj.points.shape[1] == 2


def test_timed_out_branches_raise(packages):
    # a relative curve that times out used to be read as a polyline, so the
    # pairing returned a number where the orbit count raised
    pkg = packages["moebius"]
    tol = DEFAULT.override(max_steps=20)
    rep = pkg.pairing[1]
    p, p_abs = pkg.crit.by_id(rep.rows[0]), pkg.crit.by_id(rep.cols[0])
    assert pkg.field_neg.crit.by_id(p.id).kind == INTERIOR
    with pytest.raises(FlowTimeout):
        intersection_pairing(pkg.field_neg, pkg.field_pos, p, p_abs, tol)
    source, sink = next(iter(pkg.incidences["N"]))
    with pytest.raises(FlowTimeout):
        count_connecting_orbits(pkg.field_pos, pkg.field_pos.crit.by_id(source),
                                pkg.field_pos.crit.by_id(sink), tol)
